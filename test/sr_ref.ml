(* Reference SR-CaQR mapper: the list-based implementation that
   [Caqr.Sr_caqr] replaced, kept verbatim as a test oracle (only this
   header and the [open] are new). The flat mapper must produce the same
   physical circuit, SWAP count, width and reuse count on every input,
   and raise the same error where this one raises. *)

open Caqr

type result = {
  physical : Quantum.Circuit.t;
  swaps_added : int;
  qubits_used : int;
  reuses : int;
}

module B = Quantum.Circuit.Builder

type state = {
  device : Hardware.Device.t;
  circuit : Quantum.Circuit.t;
  dag : Quantum.Dag.t;
  critical : bool array;
  indeg : int array;
  mutable frontier : int list;
  l2p : int array;
  p2l : int array;
  used_before : bool array;  (* physical qubit has hosted gates *)
  last_clbit : int array;  (* physical -> clbit of its latest measurement *)
  remaining : int array;  (* logical -> gates left *)
  scratch : int array;  (* physical -> scratch clbit for blind resets *)
  out : B.t;
  mutable swaps : int;
  mutable last_swap : int * int;
  mutable reuses : int;
}

let init device circuit =
  let dag = Quantum.Dag.build circuit in
  let n = Quantum.Dag.num_nodes dag in
  let np = Hardware.Device.num_qubits device in
  let weight i =
    Quantum.Duration.of_kind Quantum.Duration.default
      circuit.Quantum.Circuit.gates.(i).Quantum.Gate.kind
  in
  let remaining = Array.make (max 1 circuit.Quantum.Circuit.num_qubits) 0 in
  Array.iter
    (fun g ->
      if not (Quantum.Gate.is_barrier g.Quantum.Gate.kind) then
        List.iter
          (fun q -> remaining.(q) <- remaining.(q) + 1)
          (Quantum.Gate.qubits g.Quantum.Gate.kind))
    circuit.Quantum.Circuit.gates;
  let base_clbits = circuit.Quantum.Circuit.num_clbits in
  {
    device;
    circuit;
    dag;
    critical = Quantum.Dag.critical_nodes ~weight dag;
    indeg = Array.init n (Quantum.Dag.in_degree dag);
    frontier = List.filter (fun i -> Quantum.Dag.in_degree dag i = 0) (List.init n Fun.id);
    l2p = Array.make (max 1 circuit.Quantum.Circuit.num_qubits) (-1);
    p2l = Array.make np (-1);
    used_before = Array.make np false;
    last_clbit = Array.make np (-1);
    remaining;
    scratch = Array.init np (fun p -> base_clbits + p);
    out = B.create ~num_qubits:np ~num_clbits:(base_clbits + np);
    swaps = 0;
    last_swap = (-1, -1);
    reuses = 0;
  }

let kind_of st i = st.circuit.Quantum.Circuit.gates.(i).Quantum.Gate.kind

(* Reclaim-then-reuse: map logical [l] onto physical [ph]; a previously
   used physical gets a conditional reset first (Fig. 2 (b): its own last
   measurement drives the X; a blind reclaim measures into scratch). *)
let place st l ph =
  Guard.Inject.hit "sr.place";
  if st.p2l.(ph) >= 0 then invalid_arg "Sr_caqr.place: occupied";
  if st.used_before.(ph) then begin
    st.reuses <- st.reuses + 1;
    Obs.Metrics.incr "sr.reuses";
    if st.last_clbit.(ph) >= 0 then B.if_x st.out st.last_clbit.(ph) ph
    else begin
      B.measure st.out ph st.scratch.(ph);
      B.if_x st.out st.scratch.(ph) ph
    end;
    st.last_clbit.(ph) <- -1
  end;
  st.l2p.(l) <- ph;
  st.p2l.(ph) <- l

let free_physicals st =
  let acc = ref [] in
  for p = Hardware.Device.num_qubits st.device - 1 downto 0 do
    if st.p2l.(p) = -1 then acc := p :: !acc
  done;
  !acc

(* Future partners of logical [l] that are already mapped (lookahead). *)
let mapped_partners st l =
  let acc = ref [] in
  Array.iter
    (fun g ->
      let k = g.Quantum.Gate.kind in
      if Quantum.Gate.is_two_q k then
        match Quantum.Gate.qubits k with
        | [ a; b ] ->
          if a = l && st.l2p.(b) >= 0 then acc := st.l2p.(b) :: !acc
          else if b = l && st.l2p.(a) >= 0 then acc := st.l2p.(a) :: !acc
        | _ -> ())
    st.circuit.Quantum.Circuit.gates;
  !acc

let best_by score = function
  | [] -> None
  | x :: rest ->
    Some
      (fst
         (List.fold_left
            (fun (bx, bs) y ->
              let s = score y in
              if s < bs then (y, s) else (bx, bs))
            (x, score x) rest))

(* Map an unmapped logical with no mapped partner: prefer well-connected,
   low-error physicals close to the qubits its future gates will touch. *)
let map_fresh st l =
  let partners = mapped_partners st l in
  let score p =
    let look =
      List.fold_left (fun acc q -> acc + Hardware.Device.distance st.device p q) 0 partners
    in
    (10. *. float_of_int look) -. Hardware.Device.qubit_quality st.device p
  in
  match best_by score (free_physicals st) with
  | Some p -> place st l p
  | None ->
    Guard.Error.fail ~stage:"core.sr" ~site:"sr.place"
      "no free physical qubit for logical %d" l

(* Map an unmapped logical next to its already-mapped gate partner,
   nudged toward its future mapped partners (lookahead) and breaking
   ties by readout/link error (§3.3.1 Step 2). *)
let map_near st l partner_phys =
  let partners = mapped_partners st l in
  let score p =
    let d = Hardware.Device.distance st.device p partner_phys in
    let look =
      List.fold_left
        (fun acc q -> acc + Hardware.Device.distance st.device p q)
        0 partners
    in
    let link_err =
      if Hardware.Device.adjacent st.device p partner_phys then
        Hardware.Device.cx_error st.device p partner_phys
      else 0.05
    in
    (100. *. float_of_int d)
    +. (10. *. float_of_int look)
    +. Hardware.Device.readout_error st.device p
    +. link_err
  in
  match best_by score (free_physicals st) with
  | Some p -> place st l p
  | None ->
    Guard.Error.fail ~stage:"core.sr" ~site:"sr.place"
      "no free physical qubit near physical %d for logical %d" partner_phys l

let map_gate_qubits st i =
  match Quantum.Gate.qubits (kind_of st i) with
  | [ q ] -> if st.l2p.(q) < 0 then map_fresh st q
  | [ a; b ] ->
    let ma = st.l2p.(a) >= 0 and mb = st.l2p.(b) >= 0 in
    if (not ma) && not mb then begin
      (* Paper: map the qubit with more gates first. *)
      let first, second =
        if st.remaining.(a) >= st.remaining.(b) then (a, b) else (b, a)
      in
      map_fresh st first;
      map_near st second st.l2p.(first)
    end
    else if not ma then map_near st a st.l2p.(b)
    else if not mb then map_near st b st.l2p.(a)
  | qs ->
    (* Barriers span any number of wires; each unmapped operand still
       needs a home or the gate never becomes executable. *)
    List.iter (fun q -> if st.l2p.(q) < 0 then map_fresh st q) qs

let complete st i =
  Quantum.Dag.iter_succs
    (fun j ->
      st.indeg.(j) <- st.indeg.(j) - 1;
      if st.indeg.(j) = 0 then st.frontier <- j :: st.frontier)
    st.dag i

(* Emit gate [i] (operands mapped and, for 2q, adjacent). *)
let emit st i =
  let kind = kind_of st i in
  let mapped = Quantum.Gate.map_qubits (fun q -> st.l2p.(q)) kind in
  B.add st.out mapped;
  (match mapped with
   | Quantum.Gate.Measure (p, c) -> st.last_clbit.(p) <- c
   | k -> List.iter (fun p -> st.last_clbit.(p) <- -1) (Quantum.Gate.qubits k));
  List.iter (fun p -> st.used_before.(p) <- true) (Quantum.Gate.qubits mapped);
  if not (Quantum.Gate.is_barrier kind) then
    List.iter
      (fun l ->
        st.remaining.(l) <- st.remaining.(l) - 1;
        if st.remaining.(l) = 0 then begin
          (* Step 4: reclaim the physical qubit. *)
          st.p2l.(st.l2p.(l)) <- -1
        end)
      (Quantum.Gate.qubits kind);
  st.last_swap <- (-1, -1);
  complete st i

let executable st i =
  let k = kind_of st i in
  let qs = Quantum.Gate.qubits k in
  List.for_all (fun q -> st.l2p.(q) >= 0) qs
  &&
  if Quantum.Gate.is_two_q k then
    match qs with
    | [ a; b ] -> Hardware.Device.adjacent st.device st.l2p.(a) st.l2p.(b)
    | _ -> true
  else true

let all_mapped st i =
  List.for_all (fun q -> st.l2p.(q) >= 0) (Quantum.Gate.qubits (kind_of st i))

(* One heuristic SWAP, scored against every mapped-but-distant frontier
   gate plus a lookahead window (the "side-effect on the following
   gates" of §3.3.1 Step 3), preferring low-error links; the displaced
   free qubit is reset if its state is stale. *)
let lookahead_window = 12
let lookahead_weight = 0.5

let mapped_two_q_pairs st ids =
  List.filter_map
    (fun i ->
      match Quantum.Gate.qubits (kind_of st i) with
      | [ a; b ]
        when Quantum.Gate.is_two_q (kind_of st i)
             && st.l2p.(a) >= 0
             && st.l2p.(b) >= 0 ->
        Some (a, b)
      | _ -> None)
    ids

let extended_set st =
  let acc = ref [] and count = ref 0 in
  let seen = Hashtbl.create 32 in
  let q = Queue.create () in
  List.iter (fun i -> Queue.add i q) st.frontier;
  while (not (Queue.is_empty q)) && !count < lookahead_window do
    let i = Queue.pop q in
    if not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      (match mapped_two_q_pairs st [ i ] with
       | [ pair ] ->
         acc := pair :: !acc;
         incr count
       | _ -> ());
      Quantum.Dag.iter_succs (fun j -> Queue.add j q) st.dag i
    end
  done;
  !acc

let insert_swap st i =
  match Quantum.Gate.qubits (kind_of st i) with
  | [ a; b ] ->
    let pa = st.l2p.(a) and pb = st.l2p.(b) in
    let front = mapped_two_q_pairs st st.frontier in
    let ext = extended_set st in
    let candidates =
      List.map (fun n -> (pa, n)) (Hardware.Device.neighbors st.device pa)
      @ List.map (fun n -> (pb, n)) (Hardware.Device.neighbors st.device pb)
    in
    (* Progress guarantee: only swaps that strictly shrink THIS gate's
       distance are considered; the frontier/lookahead sums just rank
       them. Otherwise help for other pairs can dominate and the router
       wanders without ever unblocking the stuck gate. *)
    let gate_dist (p, n) =
      let phys q =
        let ph = st.l2p.(q) in
        if ph = p then n else if ph = n then p else ph
      in
      Hardware.Device.distance st.device (phys a) (phys b)
    in
    let d0 = Hardware.Device.distance st.device pa pb in
    let candidates =
      List.filter (fun cand -> gate_dist cand < d0) candidates
    in
    let score (p, n) =
      let phys q =
        let ph = st.l2p.(q) in
        if ph = p then n else if ph = n then p else ph
      in
      let dist_sum pairs =
        List.fold_left
          (fun acc (x, y) ->
            acc + Hardware.Device.distance st.device (phys x) (phys y))
          0 pairs
      in
      (100. *. float_of_int (dist_sum front))
      +. (100. *. lookahead_weight *. float_of_int (dist_sum ext))
      +. Hardware.Device.cx_error st.device p n
      (* Anti-oscillation: undoing the previous swap is a last resort. *)
      +. (if (p, n) = st.last_swap || (n, p) = st.last_swap then 10000. else 0.)
    in
    (match best_by score candidates with
     | Some (p, n) ->
       (* Swapping garbage state into the computation would corrupt it:
          reset a stale free qubit first. *)
       let clean q =
         if st.p2l.(q) = -1 && st.used_before.(q) then begin
           if st.last_clbit.(q) >= 0 then B.if_x st.out st.last_clbit.(q) q
           else begin
             B.measure st.out q st.scratch.(q);
             B.if_x st.out st.scratch.(q) q
           end;
           st.last_clbit.(q) <- -1
         end
       in
       clean p;
       clean n;
       B.swap st.out p n;
       st.used_before.(p) <- true;
       st.used_before.(n) <- true;
       st.last_clbit.(p) <- -1;
       st.last_clbit.(n) <- -1;
       st.swaps <- st.swaps + 1;
       Obs.Metrics.incr "sr.swaps";
       st.last_swap <- (p, n);
       (* Update occupancy. *)
       let lp = st.p2l.(p) and ln = st.p2l.(n) in
       st.p2l.(p) <- ln;
       st.p2l.(n) <- lp;
       if lp >= 0 then st.l2p.(lp) <- n;
       if ln >= 0 then st.l2p.(ln) <- p
     | None ->
       Guard.Error.fail ~stage:"core.sr" ~site:"sr.place"
         "insert_swap: isolated qubit (no distance-reducing swap for %d-%d)"
         pa pb)
  | _ -> invalid_arg "Sr_caqr.insert_swap: not a 2-qubit gate"

let run st =
  Obs.Metrics.incr "sr.runs";
  Obs.Metrics.time "time.sr" @@ fun () ->
  let max_iters = (Quantum.Dag.num_nodes st.dag * 50) + 1000 in
  let tick =
    Guard.Budget.ticker ~stage:"core.sr" ~site:"sr.place" ~limit:max_iters ()
  in
  while st.frontier <> [] do
    tick ();
    let emitted = ref false in
    (* Emit everything executable (Step 3). *)
    let rec drain () =
      let ready, rest = List.partition (executable st) st.frontier in
      if ready <> [] then begin
        emitted := true;
        st.frontier <- rest;
        List.iter (emit st) (List.sort compare ready);
        drain ()
      end
    in
    drain ();
    (* Map qubits of critical frontier gates (Step 2); delayed gates keep
       waiting. *)
    let to_map =
      List.filter
        (fun i -> st.critical.(i) && not (all_mapped st i))
        st.frontier
    in
    if to_map <> [] then begin
      List.iter (map_gate_qubits st) (List.sort compare to_map);
      emitted := true
    end;
    if not !emitted && st.frontier <> [] then begin
      (* No critical work: route a mapped-but-distant pair, else force-map
         the oldest delayed gate (its slack is spent). *)
      let blocked = List.filter (all_mapped st) st.frontier in
      match List.sort compare blocked with
      | i :: _ -> insert_swap st i
      | [] ->
        (match List.sort compare st.frontier with
         | i :: _ -> map_gate_qubits st i
         | [] -> ())
    end
  done;
  let physical = B.build st.out in
  {
    physical;
    swaps_added = st.swaps;
    qubits_used = List.length (Quantum.Circuit.active_qubits physical);
    reuses = st.reuses;
  }

let regular device circuit = run (init device circuit)

let commutable ?gamma ?beta device problem_graph =
  (* Paper §3.3.2 Step 1: let QS-CaQR propose reuse sweet spots, then
     compile each with the lazy mapper and keep the cheapest result. *)
  let steps = Commute.sweep ?gamma ?beta problem_graph in
  if steps = [] then invalid_arg "Sr_caqr.commutable: empty sweep";
  let arr = Array.of_list steps in
  let min_depth =
    Array.fold_left
      (fun best (s : Engine.step) ->
        match best with
        | Some (b : Engine.step) when b.depth <= s.depth -> best
        | _ -> Some s)
      None arr
    |> Option.get
  in
  let candidates =
    List.sort_uniq compare
      [ 0; Array.length arr / 2; Array.length arr - 1 ]
    |> List.map (fun i -> arr.(i))
  in
  let candidates =
    if List.memq min_depth candidates then candidates
    else min_depth :: candidates
  in
  let compiled =
    List.map (fun (s : Engine.step) -> regular device s.circuit) candidates
  in
  List.fold_left
    (fun best r ->
      match best with
      | Some b
        when (b.swaps_added, b.qubits_used) <= (r.swaps_added, r.qubits_used) ->
        best
      | _ -> Some r)
    None compiled
  |> Option.get
