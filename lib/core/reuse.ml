type pair = { src : int; dst : int }

type analysis = {
  circuit : Quantum.Circuit.t;
  dag : Quantum.Dag.t;
  (* qreach.(a).(b): some gate on qubit a reaches (reflexively) some gate
     on qubit b. This qubit-level projection of the O(n^2) gate closure is
     all Condition 2 ever consults, and — unlike the gate-level closure —
     it admits an exact O(k^2) update under a reuse application. *)
  qreach : bool array array;
  inter : Galg.Graph.t;
  active : bool array;
  (* Does the circuit contain barrier pseudo-gates? Barriers chain on
     their wires without appearing in [active]/[inter]/[on_qubit], so the
     incremental algebra cannot track them; their presence forces
     {!apply_incremental} onto the fresh-rebuild path. *)
  barriers : bool;
  cp_depth : int;  (* critical path, in unit depth *)
  (* Gates touching each clbit, for the reset splice's sole-user test.
     Lazy: predictions consult it on every candidate pair, but only wires
     ending in a measurement ever force it. *)
  clbit_users : int array Lazy.t;
  (* Per-qubit prediction summaries (max/min over the wire's gates of the
     gate-level earliest-finish and longest-tail depths). Scoring a
     candidate pair is then O(1), which is what makes sorting the ~k^2
     candidate lists of 100-1000 qubit circuits affordable; one O(gates)
     pass amortizes over every pair scored against this analysis. Lazy:
     [valid]/[valid_pairs] never force it. *)
  q_summary : qsummary Lazy.t;
}

and qsummary = {
  fin_depth : int array;  (* max ef_depth over gates on q; 0 if none *)
  tail_d : int array;  (* max tail_depth over gates on q; 0 if none *)
  start_d : int array;  (* min ef_depth over gates on q; 0 if none *)
  ends_meas : bool array;  (* wire ends in a sole-user measurement *)
}

(* Earliest-finish and longest-tail schedules in unit depth, one
   forward and one backward sweep over the DAG. This runs once per
   search node, so it loops over the DAG's flat adjacency in place and
   allocates only the two result arrays. *)
let schedules circuit dag =
  let gates = circuit.Quantum.Circuit.gates in
  let { Quantum.Dag.pred_start; pred_ids; succ_start; succ_ids } =
    Quantum.Dag.adjacency dag
  in
  let n = Quantum.Dag.num_nodes dag in
  let ef_depth = Array.make n 0 and tail_depth = Array.make n 0 in
  let cp_depth = ref 0 in
  for i = 0 to n - 1 do
    let kind = gates.(i).Quantum.Gate.kind in
    let sd = ref 0 in
    for e = pred_start.(i) to pred_start.(i + 1) - 1 do
      let p = pred_ids.(e) in
      if ef_depth.(p) > !sd then sd := ef_depth.(p)
    done;
    ef_depth.(i) <- (!sd + if Quantum.Gate.is_barrier kind then 0 else 1);
    if ef_depth.(i) > !cp_depth then cp_depth := ef_depth.(i)
  done;
  for i = n - 1 downto 0 do
    let kind = gates.(i).Quantum.Gate.kind in
    let sd = ref 0 in
    for e = succ_start.(i) to succ_start.(i + 1) - 1 do
      let s = succ_ids.(e) in
      if tail_depth.(s) > !sd then sd := tail_depth.(s)
    done;
    tail_depth.(i) <- (!sd + if Quantum.Gate.is_barrier kind then 0 else 1)
  done;
  (ef_depth, tail_depth, !cp_depth)

let rec last_gate = function
  | [] -> None
  | [ g ] -> Some g
  | _ :: tl -> last_gate tl

(* Assemble an analysis from its precomputed set-level parts plus the
   O(n+e) schedules, shared by the fresh and incremental constructions. *)
let finish_analysis circuit dag qreach ~inter ~active ~barriers =
  let ef_depth, tail_depth, cp_depth = schedules circuit dag in
  let clbit_users =
    lazy
      (let users = Array.make circuit.Quantum.Circuit.num_clbits 0 in
       Array.iter
         (fun g ->
           List.iter
             (fun c -> users.(c) <- users.(c) + 1)
             (Quantum.Gate.clbits g.Quantum.Gate.kind))
         circuit.Quantum.Circuit.gates;
       users);
  in
  let q_summary =
    lazy
      (let k = circuit.Quantum.Circuit.num_qubits in
       let fin_depth = Array.make k 0
       and tail_d = Array.make k 0
       and start_d = Array.make k 0
       and ends_meas = Array.make k false in
       for q = 0 to k - 1 do
         match Quantum.Dag.gates_on_qubit dag q with
         | [] -> ()
         | gates ->
           let fd = ref 0 and td = ref 0 and sd = ref max_int in
           List.iter
             (fun g ->
               if ef_depth.(g) > !fd then fd := ef_depth.(g);
               if tail_depth.(g) > !td then td := tail_depth.(g);
               if ef_depth.(g) < !sd then sd := ef_depth.(g))
             gates;
           fin_depth.(q) <- !fd;
           tail_d.(q) <- !td;
           start_d.(q) <- !sd;
           (match last_gate gates with
            | Some last ->
              (match circuit.Quantum.Circuit.gates.(last).Quantum.Gate.kind with
               | Quantum.Gate.Measure (_, c) ->
                 ends_meas.(q) <- (Lazy.force clbit_users).(c) = 1
               | _ -> ())
            | None -> ())
       done;
       { fin_depth; tail_d; start_d; ends_meas })
  in
  {
    circuit;
    dag;
    qreach;
    inter;
    active;
    barriers;
    cp_depth;
    clbit_users;
    q_summary;
  }

let analyze circuit =
  Obs.Metrics.incr "reuse.analyze.fresh";
  Obs.Metrics.time "time.analyze" @@ fun () ->
  let dag = Quantum.Dag.build circuit in
  let reach = Quantum.Reachability.build dag in
  let k = circuit.Quantum.Circuit.num_qubits in
  let qreach = Array.make_matrix k k false in
  for a = 0 to k - 1 do
    let a_gates = Quantum.Dag.gates_on_qubit dag a in
    for b = 0 to k - 1 do
      qreach.(a).(b) <-
        Quantum.Reachability.any_path reach a_gates
          (Quantum.Dag.gates_on_qubit dag b)
    done
  done;
  let active = Array.make k false in
  List.iter (fun q -> active.(q) <- true) (Quantum.Circuit.active_qubits circuit);
  finish_analysis circuit dag qreach
    ~inter:(Quantum.Circuit.interaction_graph circuit)
    ~active
    ~barriers:
      (Array.exists
         (fun g -> Quantum.Gate.is_barrier g.Quantum.Gate.kind)
         circuit.Quantum.Circuit.gates)

let active_qubits a =
  let acc = ref [] in
  for q = Array.length a.active - 1 downto 0 do
    if a.active.(q) then acc := q :: !acc
  done;
  !acc

let reaches a p q = a.qreach.(p).(q)

let condition1 a { src; dst } = not (Galg.Graph.has_edge a.inter src dst)

(* No gate on dst may reach a gate on src. *)
let condition2 a { src; dst } = not a.qreach.(dst).(src)

let valid a ({ src; dst } as p) =
  src <> dst
  && src >= 0
  && dst >= 0
  && src < Array.length a.active
  && dst < Array.length a.active
  && a.active.(src)
  && a.active.(dst)
  (* Condition 2 first: an array read, and it already fails every
     coupled pair (a shared gate reaches itself), so the interaction-set
     lookup of Condition 1 only runs on pairs that pass it. *)
  && condition2 a p
  && condition1 a p

let valid_pairs a =
  let k = Array.length a.active in
  let acc = ref [] in
  for src = k - 1 downto 0 do
    for dst = k - 1 downto 0 do
      let p = { src; dst } in
      if valid a p then acc := p :: !acc
    done
  done;
  !acc

(* When the wire already ends in a measurement, the reset can be a single
   conditional X driven by that measure's clbit — but only if that measure
   is the clbit's sole user. Emission orders the splice after every src
   gate and before every dst gate and nothing else, so another writer of a
   shared clbit can land between the measure and the conditional X, which
   would then read the wrong value. With no reusable clbit a fresh
   measure + X pair is spliced onto a fresh clbit instead. *)
let reusable_final_clbit a src =
  match last_gate (Quantum.Dag.gates_on_qubit a.dag src) with
  | None -> None
  | Some last ->
    (match a.circuit.Quantum.Circuit.gates.(last).Quantum.Gate.kind with
     | Quantum.Gate.Measure (_, c) ->
       if (Lazy.force a.clbit_users).(c) = 1 then Some c else None
     | _ -> None)

let src_finish_depth a { src; dst = _ } =
  (Lazy.force a.q_summary).fin_depth.(src)

let dst_start_depth a { src = _; dst } = (Lazy.force a.q_summary).start_d.(dst)

let predict_depth a { src; dst } =
  let s = Lazy.force a.q_summary in
  (* A measured wire only needs the conditional X (1 layer); otherwise the
     spliced measure + conditional X costs 2. *)
  let reset_cost = if s.ends_meas.(src) then 1 else 2 in
  max a.cp_depth (s.fin_depth.(src) + reset_cost + s.tail_d.(dst))

(* An emitted transform, together with the relabelling data the
   incremental engine needs to derive the child DAG without rebuilding:
   where each parent gate landed, and where the reset splice landed. *)
type emission = {
  em_circuit : Quantum.Circuit.t;
  em_pos : int array;      (* parent gate id -> id in the emitted circuit *)
  em_measure : int option; (* spliced measure's id, when a clbit was added *)
  em_if_x : int;           (* conditional X's id *)
}

(* Kahn topological emission with min-gate-id priority, honoring the extra
   [src gates -> reset node -> dst gates] constraints. The ready queue is
   an int min-heap on one preallocated array, and the parent DAG's
   successor lists are read in place: popping the least ready id is what
   the order depends on, and a heap pops the same minimum a sorted set
   would, so the emitted gate order is unchanged. The reset node takes id
   [n], above every gate, so it leaves the queue only once no ready gate
   precedes it. *)
let emit (a : analysis) ({ src; dst } as p) =
  let circuit = a.circuit in
  if not (valid a p) then invalid_arg "Reuse.apply: invalid pair";
  let dag = a.dag in
  let gates = circuit.Quantum.Circuit.gates in
  let n = Quantum.Dag.num_nodes dag in
  let dummy = n in
  (* Does src end in a measurement whose clbit the reset may safely
     drive? Then no new measure (or clbit) is needed. *)
  let existing_clbit = reusable_final_clbit a src in
  let base_clbits = circuit.Quantum.Circuit.num_clbits in
  let num_clbits, reset_clbit, m =
    match existing_clbit with
    | Some c -> (base_clbits, c, n + 1)
    | None -> (base_clbits + 1, base_clbits, n + 2)
  in
  (* In-degrees including the dummy reset node's edges; [on_src] marks
     the gates whose completion also counts towards the reset. *)
  let { Quantum.Dag.pred_start; succ_start; succ_ids; _ } =
    Quantum.Dag.adjacency dag
  in
  let indeg = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    indeg.(i) <- pred_start.(i + 1) - pred_start.(i)
  done;
  let on_src = Bytes.make n '\000' in
  List.iter
    (fun g ->
      Bytes.unsafe_set on_src g '\001';
      indeg.(dummy) <- indeg.(dummy) + 1)
    (Quantum.Dag.gates_on_qubit dag src);
  let d_gates = Quantum.Dag.gates_on_qubit dag dst in
  List.iter (fun g -> indeg.(g) <- indeg.(g) + 1) d_gates;
  let heap = Array.make (n + 1) 0 in
  let size = ref 0 in
  let push v =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > v do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- v
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let release j =
    indeg.(j) <- indeg.(j) - 1;
    if indeg.(j) = 0 then push j
  in
  for i = 0 to n do
    if indeg.(i) = 0 then push i
  done;
  (* Only kinds on dst change under the rename; the rest are shared.
     Barriers always go through [map_qubits], which normalises their
     wire set. *)
  let on_dst = function
    | Quantum.Gate.One_q (_, q)
    | Quantum.Gate.Reset q
    | Quantum.Gate.Measure (q, _)
    | Quantum.Gate.If_x (_, q) ->
      q = dst
    | Quantum.Gate.Cx (x, y)
    | Quantum.Gate.Cz (x, y)
    | Quantum.Gate.Rzz (_, x, y)
    | Quantum.Gate.Swap (x, y) ->
      x = dst || y = dst
    | Quantum.Gate.Barrier _ -> true
  in
  let rename q = if q = dst then src else q in
  let kinds = Array.make m (Quantum.Gate.Reset src) in
  let pos = Array.make n (-1) in
  let measure_id = ref None in
  let if_x_id = ref (-1) in
  let next = ref 0 in
  while !size > 0 do
    let i = pop () in
    if i = dummy then begin
      (match existing_clbit with
       | Some _ -> ()
       | None ->
         kinds.(!next) <- Quantum.Gate.Measure (src, reset_clbit);
         measure_id := Some !next;
         incr next);
      kinds.(!next) <- Quantum.Gate.If_x (reset_clbit, src);
      if_x_id := !next;
      incr next;
      List.iter release d_gates
    end
    else begin
      let kind = gates.(i).Quantum.Gate.kind in
      kinds.(!next) <-
        (if on_dst kind then Quantum.Gate.map_qubits rename kind else kind);
      pos.(i) <- !next;
      incr next;
      for e = succ_start.(i) to succ_start.(i + 1) - 1 do
        release succ_ids.(e)
      done;
      if Bytes.unsafe_get on_src i <> '\000' then release dummy
    end
  done;
  if !next <> m then
    invalid_arg "Reuse.apply: reuse would create a dependence cycle";
  {
    em_circuit =
      Quantum.Circuit.of_kind_array
        ~num_qubits:circuit.Quantum.Circuit.num_qubits ~num_clbits kinds;
    em_pos = pos;
    em_measure = !measure_id;
    em_if_x = !if_x_id;
  }

let apply_circuit a p = (emit a p).em_circuit
let apply circuit p = apply_circuit (analyze circuit) p

(* [relabel pos tail ids]: [ids] mapped through [pos], then [tail],
   built directly without an intermediate list. *)
let rec relabel pos tail = function
  | [] -> tail
  | g :: tl -> pos.(g) :: relabel pos tail tl

(* Chain DAG of an emitted circuit, derived from the parent's without a
   rebuild: emission preserves each wire's (and clbit's) gate order, so
   every parent chain edge relabels through [em_pos], and the only new
   edges are the reset splice's on wire src. Exact only when the splice
   is local (see {!splice_is_local}) — callers must check first. The
   child's flat adjacency is filled in one pass over the parent's: each
   node's relabelled neighbours, then a splice edge in the last slot of
   the two gates the splice attaches to. *)
let derived_dag (a : analysis) ~src ~dst em =
  let dag = a.dag in
  let parent = Quantum.Dag.adjacency dag in
  let n = Quantum.Dag.num_nodes dag in
  let pos = em.em_pos in
  let m = Array.length em.em_circuit.Quantum.Circuit.gates in
  let s_gates = Quantum.Dag.gates_on_qubit dag src in
  let d_gates = Quantum.Dag.gates_on_qubit dag dst in
  let last_s = pos.(List.fold_left max (-1) s_gates) in
  let first_d = pos.(List.hd d_gates) in
  let if_x = em.em_if_x in
  (* the splice chain: last_s -> [measure ->] if_x -> first_d *)
  let head = match em.em_measure with Some d1 -> d1 | None -> if_x in
  (* Degrees go one slot up, then prefix sums turn them into offsets. *)
  let pred_start = Array.make (m + 1) 0 and succ_start = Array.make (m + 1) 0 in
  for i = 0 to n - 1 do
    pred_start.(pos.(i) + 1) <- Quantum.Dag.in_degree dag i;
    succ_start.(pos.(i) + 1) <- Quantum.Dag.out_degree dag i
  done;
  succ_start.(last_s + 1) <- succ_start.(last_s + 1) + 1;
  pred_start.(first_d + 1) <- pred_start.(first_d + 1) + 1;
  (match em.em_measure with
   | Some d1 ->
     pred_start.(d1 + 1) <- 1;
     succ_start.(d1 + 1) <- 1
   | None -> ());
  pred_start.(if_x + 1) <- 1;
  succ_start.(if_x + 1) <- 1;
  for v = 1 to m do
    pred_start.(v) <- pred_start.(v) + pred_start.(v - 1);
    succ_start.(v) <- succ_start.(v) + succ_start.(v - 1)
  done;
  let pred_ids = Array.make pred_start.(m) 0
  and succ_ids = Array.make succ_start.(m) 0 in
  for i = 0 to n - 1 do
    let pi = pos.(i) in
    let lo = parent.Quantum.Dag.pred_start.(i) in
    for e = lo to parent.Quantum.Dag.pred_start.(i + 1) - 1 do
      pred_ids.(pred_start.(pi) + e - lo) <- pos.(parent.Quantum.Dag.pred_ids.(e))
    done;
    let lo = parent.Quantum.Dag.succ_start.(i) in
    for e = lo to parent.Quantum.Dag.succ_start.(i + 1) - 1 do
      succ_ids.(succ_start.(pi) + e - lo) <- pos.(parent.Quantum.Dag.succ_ids.(e))
    done
  done;
  succ_ids.(succ_start.(last_s + 1) - 1) <- head;
  pred_ids.(pred_start.(first_d + 1) - 1) <- if_x;
  (match em.em_measure with
   | Some d1 ->
     pred_ids.(pred_start.(d1)) <- last_s;
     succ_ids.(succ_start.(d1)) <- if_x;
     pred_ids.(pred_start.(if_x)) <- d1
   | None -> pred_ids.(pred_start.(if_x)) <- last_s);
  succ_ids.(succ_start.(if_x)) <- first_d;
  let k = em.em_circuit.Quantum.Circuit.num_qubits in
  let on_qubit = Array.make (max 1 k) [] in
  for q = 0 to k - 1 do
    if q <> src && q <> dst then
      on_qubit.(q) <- relabel pos [] (Quantum.Dag.gates_on_qubit dag q)
  done;
  let reset_then_dst = if_x :: relabel pos [] d_gates in
  on_qubit.(src) <-
    relabel pos
      (match em.em_measure with
       | Some d1 -> d1 :: reset_then_dst
       | None -> reset_then_dst)
      s_gates;
  (* [~check:false]: this is the per-apply hot path of the incremental
     engine, and its analyses are cross-validated byte-for-byte against
     fresh ones by the property suites and the fuzz [engines] oracle, so
     the deep shape checks would only re-verify what those already pin. *)
  Quantum.Dag.of_parts ~check:false em.em_circuit
    { Quantum.Dag.pred_start; pred_ids; succ_start; succ_ids }
    ~on_qubit

(* The incremental algebra models the reset splice as nodes wired only to
   src's and dst's gates. That is the whole story exactly when the
   circuit has no barriers (they chain on wires without appearing in the
   analysis sets). Clbits no longer threaten locality: the reset only
   reuses src's final-measure clbit when that measure is its sole user
   (see {!reusable_final_clbit}), and otherwise the splice runs on a
   fresh clbit nothing else touches. *)
let splice_is_local a = not a.barriers

(* The incremental engine. The reset node D sits (transitively) after
   every src gate and before every dst gate, and — when the splice is
   local — it is the only new dependence, so the new gate-level closure
   is

     reach'(g, h) = reach(g, h) \/ (reach(g, D) /\ reach(D, h))

   where reach(g, D) iff g reaches some src gate and reach(D, h) iff some
   dst gate reaches h. Projected to qubits:

     R'(a, b) = R(a, b) \/ (R(a, src) /\ R(dst, b)).

   Rewiring dst's gates onto src then merges dst's row and column into
   src's; dst keeps no gates, so its row and column go empty — exactly
   what a fresh projection of the transformed circuit yields.

   The interaction graph updates the same way: the reset adds no
   two-qubit gate, and Condition 1 guarantees no gate couples src with
   dst, so renaming dst to src in the edge set is exact (no self-loops
   can appear). The active set just retires dst, and the chain DAG is
   relabelled via {!derived_dag}. Only the O(n+e) schedules are
   recomputed. When the splice is not local the whole derivation falls
   back to a fresh analysis of the transformed circuit.

   [time.analyze] covers the analysis derivation only — the circuit
   emission is transform work that {!apply} does not time either, so the
   timer draws the same boundary for both engines. *)
let apply_incremental a ({ src; dst } as p) =
  if not (splice_is_local a) then
    analyze (apply_circuit a p)
  else begin
    Obs.Metrics.incr "reuse.analyze.incremental";
    let em = emit a p in
    Obs.Metrics.time "time.analyze" @@ fun () ->
    let dag = derived_dag a ~src ~dst em in
    let k = Array.length a.active in
    let q = Array.make_matrix k k false in
    for x = 0 to k - 1 do
      let row = a.qreach.(x) and out = q.(x) in
      let via_d = row.(src) in
      let d_row = a.qreach.(dst) in
      for y = 0 to k - 1 do
        out.(y) <- row.(y) || (via_d && d_row.(y))
      done
    done;
    for y = 0 to k - 1 do
      q.(src).(y) <- q.(src).(y) || q.(dst).(y)
    done;
    for x = 0 to k - 1 do
      q.(x).(src) <- q.(x).(src) || q.(x).(dst)
    done;
    for i = 0 to k - 1 do
      q.(dst).(i) <- false;
      q.(i).(dst) <- false
    done;
    (* Renaming dst to src in the edge set is exactly a contraction of
       the pair (paper Fig. 5): O(deg dst) set updates on a copy instead
       of reifying and rebuilding the whole edge list. *)
    let inter = Galg.Graph.copy a.inter in
    Galg.Graph.contract inter src dst;
    let active = Array.copy a.active in
    active.(dst) <- false;
    (* the fast path is only taken on barrier-free circuits, and the
       emission adds no barriers *)
    finish_analysis em.em_circuit dag q ~inter ~active ~barriers:false
  end

let circuit a = a.circuit

let usage a =
  Array.fold_left (fun n active -> if active then n + 1 else n) 0 a.active

let qubit_usage circuit = List.length (Quantum.Circuit.active_qubits circuit)
