(* ---- The outcome-tree walker ----

   A node of the tree is (state, classical register, gate index). Gates
   up to the next measurement or reset are applied in place; there the
   node branches on the outcome. Exact mode takes both outcomes, weighted
   by their Born probabilities; sampled mode routes each group of shots
   to the outcome its pre-drawn uniform selects. Either way a node whose
   both children are live saves its state, walks the 0 child, restores
   the state and walks the 1 child, so every outcome prefix is simulated
   once. *)

(* Amplitudes the saved states may hold together, beyond the working
   state: 2^22, 64 MiB. A branching depth past the cap saves nothing;
   its node is rebuilt for the second outcome by replaying the recorded
   outcome path from the deepest saved ancestor, or from |0...0> when no
   depth is saved (wider than 22 qubits). *)
let saved_amplitudes = 1 lsl 22

(* Probability mass below this is a dead branch (Born probabilities of
   impossible outcomes computed in floats land around 1e-16). *)
let prune = 1e-12

exception Too_many_branches

type mode =
  | Exact of { dist : float array; max_branches : int; mutable branches : int }
  | Sampled of {
      draws : float array;  (* shot s's uniform for ordinal j at s * per_shot + j *)
      per_shot : int;
      ids : int array;  (* shot ids; a node owns a contiguous range *)
      out : int array;  (* shot id -> classical register *)
    }

type walker = {
  gates : Quantum.Gate.kind array;
  ordinal : int array;  (* gate index -> rank among Measure/Reset, or -1 *)
  read_from : int;  (* first gate of the trailing block read off at once *)
  wiring : int array;  (* that block's (qubit, clbit) pairs, flat *)
  st : State.t;
  saved : State.t option array;  (* one per branching depth under the cap *)
  saved_gate : int array;
  saved_creg : int array;
  path : int array;  (* ordinal -> outcome taken on the current path *)
  mode : mode;
}

let ordinals gates =
  let k = ref 0 in
  let ordinal =
    Array.map
      (function
        | Quantum.Gate.Measure _ | Quantum.Gate.Reset _ ->
          incr k;
          !k - 1
        | _ -> -1)
      gates
  in
  (ordinal, !k)

let walker (c : Quantum.Circuit.t) ~read_from ~wiring mode =
  let gates = Array.map (fun g -> g.Quantum.Gate.kind) c.gates in
  let ordinal, k = ordinals gates in
  let st = State.init c.num_qubits in
  let slots = min k (saved_amplitudes lsr c.num_qubits) in
  {
    gates;
    ordinal;
    read_from = min read_from (Array.length gates);
    wiring;
    st;
    saved = Array.make slots None;
    saved_gate = Array.make slots 0;
    saved_creg = Array.make slots 0;
    path = Array.make k 0;
    mode;
  }

(* Gate [i], not a measurement or reset. *)
let step w creg i =
  match w.gates.(i) with
  | Quantum.Gate.If_x (c, q) ->
    if creg land (1 lsl c) <> 0 then State.apply_one_q w.st Quantum.Gate.X q
  | kind -> State.apply_unitary w.st kind

(* Gate [i], a measurement or reset, takes [outcome]: the state
   collapses, the path records it, and the register or the qubit takes
   its effect. Returns the register. *)
let commit w creg i outcome =
  w.path.(w.ordinal.(i)) <- outcome;
  match w.gates.(i) with
  | Quantum.Gate.Measure (q, c) ->
    State.collapse w.st q outcome;
    let cleared = creg land lnot (1 lsl c) in
    if outcome = 1 then cleared lor (1 lsl c) else cleared
  | Quantum.Gate.Reset q ->
    State.collapse w.st q outcome;
    if outcome = 1 then State.apply_one_q w.st Quantum.Gate.X q;
    creg
  | _ -> invalid_arg "Executor.commit: not a measurement or reset"

let save w depth i creg =
  let dst =
    match w.saved.(depth) with
    | Some s -> s
    | None ->
      let s = State.init (State.num_qubits w.st) in
      w.saved.(depth) <- Some s;
      s
  in
  State.blit ~src:w.st ~dst;
  w.saved_gate.(depth) <- i;
  w.saved_creg.(depth) <- creg

(* Sampled mode polls the deadline at every branching node and before
   every replay, so a deadline stops a batch partway through its walk,
   as it stopped the per-shot loop between two shots. Exact mode polls
   none, as the branch recursion it replaced polled none. *)
let poll w site =
  match w.mode with
  | Sampled _ -> Guard.Budget.checkpoint ~stage:"sim.executor" ~site
  | Exact _ -> ()

(* Bring the working state back to the node before gate [i] at [depth]. *)
let restore w depth i =
  let slots = Array.length w.saved in
  if depth < slots then State.blit ~src:(Option.get w.saved.(depth)) ~dst:w.st
  else begin
    poll w "sim.replay";
    Obs.Metrics.incr "sim.replays";
    let from =
      if slots = 0 then begin
        State.clear w.st;
        0
      end
      else begin
        State.blit ~src:(Option.get w.saved.(slots - 1)) ~dst:w.st;
        w.saved_gate.(slots - 1)
      end
    in
    let creg = ref (if slots = 0 then 0 else w.saved_creg.(slots - 1)) in
    for j = from to i - 1 do
      if w.ordinal.(j) >= 0 then creg := commit w !creg j w.path.(w.ordinal.(j))
      else step w !creg j
    done
  end

(* Sampled mode: order the node's shots [lo, hi) so that those whose
   draw for ordinal [j] selects 0 come first; returns where the 1s
   start. *)
let partition ids (draws : float array) per_shot lo hi j (p1 : float) =
  let mid = ref hi and x = ref lo in
  while !x < !mid do
    let id = ids.(!x) in
    if draws.((id * per_shot) + j) < p1 then begin
      decr mid;
      ids.(!x) <- ids.(!mid);
      ids.(!mid) <- id
    end
    else incr x
  done;
  !mid

(* [lo, hi) are the node's shots (sampled mode), [weight] its
   probability (exact mode; 1 in sampled mode). A NaN weight (from a NaN
   angle) is walked, not pruned. *)
let rec visit w creg i lo hi weight depth =
  if not (weight <= prune) then begin
    let i = ref i in
    while !i < w.read_from && w.ordinal.(!i) < 0 do
      step w creg !i;
      incr i
    done;
    if !i < w.read_from then branch w creg !i lo hi weight depth
    else
      match w.mode with
      | Exact e ->
        if !i >= Array.length w.gates then e.dist.(creg) <- e.dist.(creg) +. weight
        else State.read_off w.st ~creg ~wiring:w.wiring ~weight e.dist
      | Sampled s ->
        for x = lo to hi - 1 do
          s.out.(s.ids.(x)) <- creg
        done
  end

and branch w creg i lo hi weight depth =
  let q =
    match w.gates.(i) with
    | Quantum.Gate.Measure (q, _) | Quantum.Gate.Reset q -> q
    | _ -> invalid_arg "Executor.branch: not a measurement or reset"
  in
  poll w "sim.branch";
  let p1 = State.prob_one w.st q in
  match w.mode with
  | Exact e ->
    let p0 = 1. -. p1 in
    if p1 *. weight <= prune then follow w creg i 0 lo hi (weight *. p0) depth
    else if p0 *. weight <= prune then follow w creg i 1 lo hi (weight *. p1) depth
    else begin
      e.branches <- e.branches + 1;
      if e.branches > e.max_branches then raise Too_many_branches;
      split w creg i lo hi (weight *. p0) lo hi (weight *. p1) depth
    end
  | Sampled s ->
    let mid = partition s.ids s.draws s.per_shot lo hi w.ordinal.(i) p1 in
    if mid = hi then follow w creg i 0 lo hi weight depth
    else if mid = lo then follow w creg i 1 lo hi weight depth
    else split w creg i lo mid weight mid hi weight depth

and follow w creg i outcome lo hi weight depth =
  visit w (commit w creg i outcome) (i + 1) lo hi weight depth

and split w creg i lo0 hi0 w0 lo1 hi1 w1 depth =
  if depth < Array.length w.saved then save w depth i creg;
  follow w creg i 0 lo0 hi0 w0 (depth + 1);
  restore w depth i;
  follow w creg i 1 lo1 hi1 w1 (depth + 1)

let walk w ~shots =
  visit w 0 0 0 shots 1. 0;
  Obs.Metrics.incr
    ~by:
      (Array.fold_left
         (fun acc s -> match s with Some s -> acc + State.passes s | None -> acc)
         (State.passes w.st) w.saved)
    "sim.amplitude_passes"

(* ---- Sampling ---- *)

let compact c = fst (Quantum.Circuit.compact_qubits c)

(* Shots are sampled in fixed-size batches. Batch [i]'s RNG is a pure
   function of (seed, i) — via the splittable stream the pool hands each
   task — so the merged counts are byte-identical for every [jobs]
   value, and identical again to the jobs=1 run. The batch size is a
   constant, NOT derived from [jobs]: deriving it from [jobs] would
   change the stream partition and break the determinism contract. *)
let shots_per_batch = 256

let rng_of_prng prng =
  let word () = Int64.to_int (Int64.logand (Exec.Prng.bits64 prng) 0x3FFFFFFFL) in
  Random.State.make [| word (); word (); 0xe7ec |]

(* Each shot draws one uniform per measurement or reset, in gate order,
   shot after shot: the stream a shot-by-shot loop would read. Outcomes
   are counted in shot order too. *)
let sample_batch (c : Quantum.Circuit.t) ~per_shot rng size =
  let draws = Array.create_float (size * per_shot) in
  let draw s =
    Guard.Inject.hit "sim.shot";
    Guard.Budget.checkpoint ~stage:"sim.executor" ~site:"sim.shot";
    for j = 0 to per_shot - 1 do
      draws.((s * per_shot) + j) <- Random.State.float rng 1.
    done
  in
  (* Shot 0 reaches its fault site and checkpoint before any state is
     allocated, as it did when each shot built its own. *)
  draw 0;
  let ids = Array.init size Fun.id and out = Array.make size 0 in
  let w =
    walker c ~read_from:max_int ~wiring:[||] (Sampled { draws; per_shot; ids; out })
  in
  for s = 1 to size - 1 do
    draw s
  done;
  walk w ~shots:size;
  let counts = Counts.create ~num_clbits:c.num_clbits in
  Array.iter (Counts.add counts) out;
  counts

let run ?jobs ~seed ~shots circuit =
  let circuit = compact circuit in
  if shots <= 0 then Counts.create ~num_clbits:circuit.num_clbits
  else begin
    let per_shot =
      snd (ordinals (Array.map (fun g -> g.Quantum.Gate.kind) circuit.gates))
    in
    let batches = (shots + shots_per_batch - 1) / shots_per_batch in
    let sizes =
      List.init batches (fun i ->
          min shots_per_batch (shots - (i * shots_per_batch)))
    in
    let parts =
      Exec.Pool.map_seeded ?jobs ~seed
        (fun prng size -> sample_batch circuit ~per_shot (rng_of_prng prng) size)
        sizes
    in
    List.fold_left Counts.merge
      (Counts.create ~num_clbits:circuit.num_clbits)
      parts
  end

(* ---- Exact distributions ---- *)

(* The (qubit, clbit) pairs of the measurements in [gates] from [from]
   on, flat and in execution order, as {!State.outcome} reads them. *)
let wiring (gates : Quantum.Gate.t array) ~from =
  let pairs = ref [] in
  for i = Array.length gates - 1 downto from do
    match gates.(i).kind with
    | Quantum.Gate.Measure (q, cb) -> pairs := q :: cb :: !pairs
    | _ -> ()
  done;
  Array.of_list !pairs

let exact ~max_branches (c : Quantum.Circuit.t) =
  (* The trailing block of measurements (barriers may sit between them)
     is read off the final state in one pass. *)
  let n = Array.length c.gates in
  let read_from = ref n in
  while
    !read_from > 0
    &&
    match c.gates.(!read_from - 1).Quantum.Gate.kind with
    | Quantum.Gate.Measure _ | Quantum.Gate.Barrier _ -> true
    | _ -> false
  do
    decr read_from
  done;
  let dist = Array.make (1 lsl c.num_clbits) 0. in
  let w =
    walker c ~read_from:!read_from ~wiring:(wiring c.gates ~from:!read_from)
      (Exact { dist; max_branches; branches = 1 })
  in
  match walk w ~shots:0 with
  | () -> Ok dist
  | exception Too_many_branches ->
    Error (Printf.sprintf "more than %d measurement branches" max_branches)

(* Dynamic ops other than a trailing block of measurements make the
   distribution shot-dependent. *)
let only_final_measurements (c : Quantum.Circuit.t) =
  let seen_measure = Array.make (max 1 c.num_qubits) false in
  let ok = ref true in
  Array.iter
    (fun g ->
      match g.Quantum.Gate.kind with
      | Quantum.Gate.Measure (q, _) -> seen_measure.(q) <- true
      | Quantum.Gate.Reset _ | Quantum.Gate.If_x _ -> ok := false
      | k -> List.iter (fun q -> if seen_measure.(q) then ok := false) (Quantum.Gate.qubits k))
    c.gates;
  !ok

let distribution ~seed circuit =
  let circuit = compact circuit in
  if not (only_final_measurements circuit) then run ~seed ~shots:4096 circuit
  else begin
    let st = State.init circuit.num_qubits in
    Array.iter
      (fun g ->
        match g.Quantum.Gate.kind with
        | Quantum.Gate.Measure _ -> ()
        | k -> State.apply_unitary st k)
      circuit.gates;
    let wiring = wiring circuit.gates ~from:0 in
    let table = Hashtbl.create 64 in
    Array.iteri
      (fun basis p ->
        if p > 1e-12 then begin
          let outcome = State.outcome ~creg:0 ~wiring basis in
          let cur = Option.value ~default:0. (Hashtbl.find_opt table outcome) in
          Hashtbl.replace table outcome (cur +. p)
        end)
      (State.probabilities st);
    Counts.of_probs ~num_clbits:circuit.num_clbits ~shots:1_000_000
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])
  end
