type result = {
  physical : Quantum.Circuit.t;
  swaps_added : int;
  qubits_used : int;
  reuses : int;
}

module B = Quantum.Circuit.Builder

(* One SWAP is scored against every mapped-but-distant frontier gate plus
   a lookahead window (the "side-effect on the following gates" of
   §3.3.1 Step 3). *)
let lookahead_window = 12
let lookahead_weight = 0.5

(* Per-run state: flat arrays sized once at [init], so the mapper's loops
   allocate nothing but the gates they emit. *)
type state = {
  device : Hardware.Device.t;
  dist : int array array;
  nbrs : int array array;
  nbr_error : float array array;
  gates : Quantum.Gate.t array;
  dag : Quantum.Dag.t;
  critical : bool array;
  indeg : int array;
  (* The frontier is a stack of dependence-free gates, [frontier.(0 ..
     n_frontier - 1)]; its top is the most recently freed gate. Gates
     leave it in place, so the others keep their order. *)
  frontier : int array;
  mutable n_frontier : int;
  sorted : int array;  (* scratch: gate ids in ascending order *)
  (* Two-qubit partners of logical [l], one entry per gate, executed or
     not: [part_ids.(part_start.(l) .. part_start.(l + 1) - 1)]. *)
  part_start : int array;
  part_ids : int array;
  l2p : int array;
  p2l : int array;
  phys : int -> int;  (* [fun q -> l2p.(q)], built once *)
  used_before : bool array;  (* physical qubit has hosted gates *)
  last_clbit : int array;  (* physical -> clbit of its latest measurement *)
  remaining : int array;  (* logical -> gates left *)
  scratch : int array;  (* physical -> scratch clbit for blind resets *)
  (* SWAP scoring: the mapped front pairs, the lookahead pairs, and the
     breadth-first walk that finds the latter (a node is expanded once
     per walk, so the queue holds the frontier plus every DAG edge). *)
  front_a : int array;
  front_b : int array;
  look_a : int array;
  look_b : int array;
  queue : int array;
  seen : int array;
  mutable walks : int;
  out : B.t;
  mutable swaps : int;
  mutable last_p : int;  (* the previous SWAP, -1 when a gate ran since *)
  mutable last_n : int;
  mutable reuses : int;
}

let init device (circuit : Quantum.Circuit.t) =
  let dag = Quantum.Dag.build circuit in
  let n = Quantum.Dag.num_nodes dag in
  let np = Hardware.Device.num_qubits device in
  let nl = max 1 circuit.num_qubits in
  let gates = circuit.gates in
  let weight i =
    Quantum.Duration.of_kind Quantum.Duration.default gates.(i).Quantum.Gate.kind
  in
  let remaining = Array.make nl 0 in
  let part_start = Array.make (nl + 1) 0 in
  let count q = remaining.(q) <- remaining.(q) + 1 in
  Array.iter
    (fun (g : Quantum.Gate.t) ->
      match g.kind with
      | One_q (_, q) | Reset q | Measure (q, _) | If_x (_, q) -> count q
      | Cx (a, b) | Cz (a, b) | Rzz (_, a, b) | Swap (a, b) ->
        count a;
        count b;
        part_start.(a + 1) <- part_start.(a + 1) + 1;
        if b <> a then part_start.(b + 1) <- part_start.(b + 1) + 1
      | Barrier _ -> ())
    gates;
  for l = 1 to nl do
    part_start.(l) <- part_start.(l) + part_start.(l - 1)
  done;
  let part_ids = Array.make (max 1 part_start.(nl)) 0 in
  let fill = Array.sub part_start 0 nl in
  let add l other =
    part_ids.(fill.(l)) <- other;
    fill.(l) <- fill.(l) + 1
  in
  Array.iter
    (fun (g : Quantum.Gate.t) ->
      match g.kind with
      | Cx (a, b) | Cz (a, b) | Rzz (_, a, b) | Swap (a, b) ->
        add a b;
        if b <> a then add b a
      | _ -> ())
    gates;
  let indeg = Array.init n (Quantum.Dag.in_degree dag) in
  (* Ascending ids from the top down, as the frontier list was built. *)
  let frontier = Array.make (max 1 n) 0 and n_frontier = ref 0 in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then begin
      frontier.(!n_frontier) <- i;
      incr n_frontier
    end
  done;
  let l2p = Array.make nl (-1) in
  let base_clbits = circuit.num_clbits in
  {
    device;
    dist = device.Hardware.Device.dist;
    nbrs = device.Hardware.Device.nbrs;
    nbr_error = device.Hardware.Device.nbr_error;
    gates;
    dag;
    critical = Quantum.Dag.critical_nodes ~weight dag;
    indeg;
    frontier;
    n_frontier = !n_frontier;
    sorted = Array.make (max 1 n) 0;
    part_start;
    part_ids;
    l2p;
    p2l = Array.make np (-1);
    phys = (fun q -> l2p.(q));
    used_before = Array.make np false;
    last_clbit = Array.make np (-1);
    remaining;
    scratch = Array.init np (fun p -> base_clbits + p);
    front_a = Array.make nl 0;
    front_b = Array.make nl 0;
    look_a = Array.make lookahead_window 0;
    look_b = Array.make lookahead_window 0;
    queue = Array.make (max 1 (n + Array.length dag.succ_ids)) 0;
    seen = Array.make (max 1 n) 0;
    walks = 0;
    out = B.create ~num_qubits:np ~num_clbits:(base_clbits + np);
    swaps = 0;
    last_p = -1;
    last_n = -1;
    reuses = 0;
  }

let kind_of st i = st.gates.(i).Quantum.Gate.kind

(* Conditional reset of physical [q] (Fig. 2 (b)): its own last
   measurement drives the X; a blind reset measures into scratch. *)
let reset st q =
  if st.last_clbit.(q) >= 0 then B.if_x st.out st.last_clbit.(q) q
  else begin
    B.measure st.out q st.scratch.(q);
    B.if_x st.out st.scratch.(q) q
  end;
  st.last_clbit.(q) <- -1

(* Reclaim-then-reuse: map logical [l] onto physical [ph]; a previously
   used physical is reset first. *)
let place st l ph =
  Guard.Inject.hit "sr.place";
  if st.p2l.(ph) >= 0 then invalid_arg "Sr_caqr.place: occupied";
  if st.used_before.(ph) then begin
    st.reuses <- st.reuses + 1;
    reset st ph
  end;
  st.l2p.(l) <- ph;
  st.p2l.(ph) <- l

(* Lookahead of placing [l] on [p]: summed distance to the physicals of
   its mapped partners. *)
let look st l p =
  let row = st.dist.(p) and s = ref 0 in
  for e = st.part_start.(l) to st.part_start.(l + 1) - 1 do
    let q = st.l2p.(st.part_ids.(e)) in
    if q >= 0 then s := !s + row.(q)
  done;
  !s

(* Place unmapped logical [l] on the free physical with the lowest
   score, scanned in ascending order, the first strict minimum kept.
   With no mapped gate partner ([partner_phys] = -1), prefer
   well-connected, low-error physicals close to the qubits its future
   gates will touch; next to its mapped partner, minimise the distance
   to it, nudged toward its future mapped partners (lookahead) and
   breaking ties by readout/link error (§3.3.1 Step 2). *)
let map_best st l partner_phys =
  let quality = st.device.Hardware.Device.quality in
  let calibration = st.device.Hardware.Device.calibration in
  let best = ref (-1) and best_score = ref 0. in
  for p = 0 to Array.length st.p2l - 1 do
    if st.p2l.(p) = -1 then begin
      let s =
        if partner_phys < 0 then (10. *. float_of_int (look st l p)) -. quality.(p)
        else begin
          let d = st.dist.(p).(partner_phys) in
          let link_err =
            match Hardware.Device.link_index st.device p partner_phys with
            | -1 -> 0.05
            | k -> st.nbr_error.(p).(k)
          in
          let readout =
            (Hardware.Calibration.qubit calibration p).Hardware.Calibration.readout_error
          in
          (100. *. float_of_int d)
          +. (10. *. float_of_int (look st l p))
          +. readout
          +. link_err
        end
      in
      if !best < 0 || s < !best_score then begin
        best := p;
        best_score := s
      end
    end
  done;
  if !best >= 0 then place st l !best
  else if partner_phys < 0 then
    Guard.Error.fail ~stage:"core.sr" ~site:"sr.place"
      "no free physical qubit for logical %d" l
  else
    Guard.Error.fail ~stage:"core.sr" ~site:"sr.place"
      "no free physical qubit near physical %d for logical %d" partner_phys l

let map_one st q = if st.l2p.(q) < 0 then map_best st q (-1)

let map_pair st a b =
  let ma = st.l2p.(a) >= 0 and mb = st.l2p.(b) >= 0 in
  if (not ma) && not mb then begin
    (* Paper: map the qubit with more gates first. *)
    if st.remaining.(a) >= st.remaining.(b) then begin
      map_best st a (-1);
      map_best st b st.l2p.(a)
    end
    else begin
      map_best st b (-1);
      map_best st a st.l2p.(b)
    end
  end
  else if not ma then map_best st a st.l2p.(b)
  else if not mb then map_best st b st.l2p.(a)

(* A two-wire barrier takes the two-qubit branch: the mapper has always
   dispatched on the operand count. *)
let map_gate_qubits st i =
  match kind_of st i with
  | One_q (_, q) | Reset q | Measure (q, _) | If_x (_, q) | Barrier [ q ] ->
    map_one st q
  | Cx (a, b) | Cz (a, b) | Rzz (_, a, b) | Swap (a, b) | Barrier [ a; b ] ->
    map_pair st a b
  | Barrier qs ->
    (* Barriers span any number of wires; each unmapped operand still
       needs a home or the gate never becomes executable. *)
    List.iter (map_one st) qs

let complete st i =
  let dag = st.dag in
  for e = dag.succ_start.(i) to dag.succ_start.(i + 1) - 1 do
    let j = dag.succ_ids.(e) in
    st.indeg.(j) <- st.indeg.(j) - 1;
    if st.indeg.(j) = 0 then begin
      st.frontier.(st.n_frontier) <- j;
      st.n_frontier <- st.n_frontier + 1
    end
  done

(* Physical [p] ran a gate that is not a measurement. *)
let touch st p =
  st.last_clbit.(p) <- -1;
  st.used_before.(p) <- true

(* Logical [l] ran one of its gates; after its last one its physical is
   reclaimed (Step 4). *)
let retire st l =
  st.remaining.(l) <- st.remaining.(l) - 1;
  if st.remaining.(l) = 0 then st.p2l.(st.l2p.(l)) <- -1

(* Emit gate [i] (operands mapped and, for 2q, adjacent). *)
let emit st i =
  let kind = kind_of st i in
  B.add st.out (Quantum.Gate.map_qubits st.phys kind);
  (match kind with
   | Measure (q, c) ->
     let p = st.l2p.(q) in
     st.last_clbit.(p) <- c;
     st.used_before.(p) <- true;
     retire st q
   | One_q (_, q) | Reset q | If_x (_, q) ->
     touch st st.l2p.(q);
     retire st q
   | Cx (a, b) | Cz (a, b) | Rzz (_, a, b) | Swap (a, b) ->
     touch st st.l2p.(a);
     touch st st.l2p.(b);
     retire st a;
     retire st b
   | Barrier qs -> List.iter (fun q -> touch st st.l2p.(q)) qs);
  st.last_p <- -1;
  st.last_n <- -1;
  complete st i

let all_mapped st i =
  match kind_of st i with
  | One_q (_, q) | Reset q | Measure (q, _) | If_x (_, q) -> st.l2p.(q) >= 0
  | Cx (a, b) | Cz (a, b) | Rzz (_, a, b) | Swap (a, b) ->
    st.l2p.(a) >= 0 && st.l2p.(b) >= 0
  | Barrier qs -> List.for_all (fun q -> st.l2p.(q) >= 0) qs

let executable st i =
  match kind_of st i with
  | Cx (a, b) | Cz (a, b) | Rzz (_, a, b) | Swap (a, b) ->
    let pa = st.l2p.(a) and pb = st.l2p.(b) in
    pa >= 0 && pb >= 0 && st.dist.(pa).(pb) = 1
  | _ -> all_mapped st i

(* Inserts gate [i] into [st.sorted.(0 .. len - 1)], kept ascending. *)
let insert_sorted st len i =
  let k = ref len in
  while !k > 0 && st.sorted.(!k - 1) > i do
    st.sorted.(!k) <- st.sorted.(!k - 1);
    decr k
  done;
  st.sorted.(!k) <- i

(* Emit everything executable (Step 3): split the frontier into the ready
   gates and the rest, emit the ready ones in ascending order (each
   pushes the successors it frees), and repeat until none is ready. *)
let rec drain st emitted =
  let kept = ref 0 and ready = ref 0 in
  for k = 0 to st.n_frontier - 1 do
    let i = st.frontier.(k) in
    if executable st i then begin
      insert_sorted st !ready i;
      incr ready
    end
    else begin
      st.frontier.(!kept) <- i;
      incr kept
    end
  done;
  if !ready = 0 then emitted
  else begin
    st.n_frontier <- !kept;
    for k = 0 to !ready - 1 do
      emit st st.sorted.(k)
    done;
    drain st true
  end

(* Logical endpoints of two-qubit gate [i] with both qubits mapped, into
   [xs.(len)], [ys.(len)]; the new length. *)
let add_mapped_pair st xs ys len i =
  match kind_of st i with
  | Cx (a, b) | Cz (a, b) | Rzz (_, a, b) | Swap (a, b)
    when st.l2p.(a) >= 0 && st.l2p.(b) >= 0 ->
    xs.(len) <- a;
    ys.(len) <- b;
    len + 1
  | _ -> len

(* The first [lookahead_window] mapped two-qubit gates of a breadth-first
   walk from the frontier, top first, into [look_a]/[look_b]; their
   number. Nodes are marked seen when popped, as a node reached along
   two paths is queued twice. *)
let lookahead st =
  let dag = st.dag in
  st.walks <- st.walks + 1;
  let head = ref 0 and tail = ref 0 and len = ref 0 in
  for f = st.n_frontier - 1 downto 0 do
    st.queue.(!tail) <- st.frontier.(f);
    incr tail
  done;
  while !head < !tail && !len < lookahead_window do
    let i = st.queue.(!head) in
    incr head;
    if st.seen.(i) <> st.walks then begin
      st.seen.(i) <- st.walks;
      len := add_mapped_pair st st.look_a st.look_b !len i;
      for e = dag.succ_start.(i) to dag.succ_start.(i + 1) - 1 do
        st.queue.(!tail) <- dag.succ_ids.(e);
        incr tail
      done
    end
  done;
  !len

(* Physical of logical [q] once [p] and [n] swap. *)
let swapped st q p n =
  let ph = st.l2p.(q) in
  if ph = p then n else if ph = n then p else ph

let swapped_dist_sum st xs ys len p n =
  let s = ref 0 in
  for k = 0 to len - 1 do
    s := !s + st.dist.(swapped st xs.(k) p n).(swapped st ys.(k) p n)
  done;
  !s

(* Swapping garbage state into the computation would corrupt it: reset a
   stale free qubit first. *)
let clean st q = if st.p2l.(q) = -1 && st.used_before.(q) then reset st q

(* One heuristic SWAP for the blocked pair [a]-[b], preferring low-error
   links; the displaced free qubit is reset if its state is stale.
   Candidates are the links of [a]'s physical, then of [b]'s, in
   ascending order; the first strict minimum wins. *)
let swap_toward st a b =
  let pa = st.l2p.(a) and pb = st.l2p.(b) in
  let n_front = ref 0 in
  for f = 0 to st.n_frontier - 1 do
    n_front := add_mapped_pair st st.front_a st.front_b !n_front st.frontier.(f)
  done;
  let n_front = !n_front and n_look = lookahead st in
  let d0 = st.dist.(pa).(pb) in
  let best_p = ref (-1) and best_n = ref (-1) and best_score = ref 0. in
  for side = 0 to 1 do
    let p = if side = 0 then pa else pb in
    let ns = st.nbrs.(p) in
    for k = 0 to Array.length ns - 1 do
      let n = ns.(k) in
      (* Progress guarantee: only swaps that strictly shrink THIS gate's
         distance are considered; the frontier/lookahead sums just rank
         them. Otherwise help for other pairs can dominate and the router
         wanders without ever unblocking the stuck gate. *)
      if st.dist.(swapped st a p n).(swapped st b p n) < d0 then begin
        let front = swapped_dist_sum st st.front_a st.front_b n_front p n in
        let ext = swapped_dist_sum st st.look_a st.look_b n_look p n in
        (* Anti-oscillation: undoing the previous swap is a last resort. *)
        let undo =
          if (p = st.last_p && n = st.last_n) || (n = st.last_p && p = st.last_n)
          then 10000.
          else 0.
        in
        let s =
          (100. *. float_of_int front)
          +. (100. *. lookahead_weight *. float_of_int ext)
          +. st.nbr_error.(p).(k)
          +. undo
        in
        if !best_p < 0 || s < !best_score then begin
          best_p := p;
          best_n := n;
          best_score := s
        end
      end
    done
  done;
  if !best_p < 0 then
    Guard.Error.fail ~stage:"core.sr" ~site:"sr.place"
      "insert_swap: isolated qubit (no distance-reducing swap for %d-%d)" pa pb;
  let p = !best_p and n = !best_n in
  clean st p;
  clean st n;
  B.swap st.out p n;
  st.used_before.(p) <- true;
  st.used_before.(n) <- true;
  st.last_clbit.(p) <- -1;
  st.last_clbit.(n) <- -1;
  st.swaps <- st.swaps + 1;
  st.last_p <- p;
  st.last_n <- n;
  (* Update occupancy. *)
  let lp = st.p2l.(p) and ln = st.p2l.(n) in
  st.p2l.(p) <- ln;
  st.p2l.(n) <- lp;
  if lp >= 0 then st.l2p.(lp) <- n;
  if ln >= 0 then st.l2p.(ln) <- p

let insert_swap st i =
  match kind_of st i with
  | Cx (a, b) | Cz (a, b) | Rzz (_, a, b) | Swap (a, b) | Barrier [ a; b ] ->
    swap_toward st a b
  | _ -> invalid_arg "Sr_caqr.insert_swap: not a 2-qubit gate"

(* The smallest frontier gate satisfying [all_mapped] (when [mapped]) or
   any (otherwise); -1 when none does. *)
let min_frontier st ~mapped =
  let best = ref (-1) in
  for k = 0 to st.n_frontier - 1 do
    let i = st.frontier.(k) in
    if (!best < 0 || i < !best) && ((not mapped) || all_mapped st i) then
      best := i
  done;
  !best

let step st =
  let emitted = drain st false in
  (* Map qubits of critical frontier gates (Step 2); delayed gates keep
     waiting. *)
  let n_map = ref 0 in
  for k = 0 to st.n_frontier - 1 do
    let i = st.frontier.(k) in
    if st.critical.(i) && not (all_mapped st i) then begin
      insert_sorted st !n_map i;
      incr n_map
    end
  done;
  for k = 0 to !n_map - 1 do
    map_gate_qubits st st.sorted.(k)
  done;
  if (not emitted) && !n_map = 0 && st.n_frontier > 0 then begin
    (* No critical work: route a mapped-but-distant pair, else force-map
       the oldest delayed gate (its slack is spent). *)
    match min_frontier st ~mapped:true with
    | -1 -> map_gate_qubits st (min_frontier st ~mapped:false)
    | i -> insert_swap st i
  end

let run st =
  Obs.Metrics.incr "sr.runs";
  Obs.Metrics.time "time.sr" @@ fun () ->
  let max_iters = (Quantum.Dag.num_nodes st.dag * 50) + 1000 in
  let tick =
    Guard.Budget.ticker ~stage:"core.sr" ~site:"sr.place" ~limit:max_iters ()
  in
  (* The counters are bumped once per run, a failed run included. *)
  Fun.protect
    ~finally:(fun () ->
      if st.swaps > 0 then Obs.Metrics.incr ~by:st.swaps "sr.swaps";
      if st.reuses > 0 then Obs.Metrics.incr ~by:st.reuses "sr.reuses")
    (fun () ->
      while st.n_frontier > 0 do
        tick ();
        step st
      done);
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
    List.sort_uniq Int.compare
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
        when b.swaps_added < r.swaps_added
             || (b.swaps_added = r.swaps_added && b.qubits_used <= r.qubits_used) ->
        best
      | _ -> Some r)
    None compiled
  |> Option.get
