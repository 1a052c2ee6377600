type order = Score | Chain | Both
type search_opts = { budget : int; order : order }

let default_opts = { budget = 400; order = Both }

(* ---- Width floor ----

   Two active qubits that reach each other (some gate on each reaches a
   gate on the other) can never share a wire: a pair between them fails
   Condition 2 in either direction, and {!Reuse.link} only grows
   reach — merging dst into src unions their rows and columns — so
   once mutual, the wires hosting them stay mutual. Every clique of the
   mutual-reach relation therefore needs that many distinct wires, and
   any search for fewer qubits must fail. The largest clique is found by
   branch and bound (vertices by descending degree, pruned on
   [size + candidates <= best]); the first, greedy descent always runs
   to the end, and past [floor_work_cap] adjacency tests no further
   branch is tried. Any clique found is a valid floor, so the cap only
   weakens the bound. *)
let floor_work_cap = 200_000

let floor_of_analysis analysis =
  let vs = Array.of_list (Reuse.active_qubits analysis) in
  let mutual i j =
    i <> j
    && Reuse.reaches analysis vs.(i) vs.(j)
    && Reuse.reaches analysis vs.(j) vs.(i)
  in
  let k = Array.length vs in
  let degree =
    Array.init k (fun i ->
        let d = ref 0 in
        for j = 0 to k - 1 do
          if mutual i j then incr d
        done;
        !d)
  in
  let order = List.init k Fun.id in
  let order =
    List.stable_sort (fun a b -> Int.compare degree.(b) degree.(a)) order
  in
  let best = ref 0 and work = ref 0 in
  let rec expand size cands ncands =
    if size > !best then best := size;
    match cands with
    | [] -> ()
    | v :: rest ->
      if size + ncands > !best then begin
        let next = List.filter (mutual v) rest in
        work := !work + ncands;
        expand (size + 1) next (List.length next);
        if !work <= floor_work_cap then expand size rest (ncands - 1)
      end
  in
  expand 0 order k;
  !best

let width_floor circuit = floor_of_analysis (Reuse.analyze circuit)

(* ---- The search ----

   The paper sweeps qubit limits: "for each application, we tried
   different qubit limit numbers". Searched one at a time, every limit
   would restart a DFS from the input circuit. Yet under one candidate
   ordering and node cap, the search for [t - 1] walks exactly the
   nodes the search for [t] walked before it found its node (none of
   them met the higher limit, so none meets the lower one), and reaches
   that node with the same node count. So a search runs one DFS per
   ordering with a falling target: at a node that meets the target the
   DFS hands it to the caller's [found], lowers the target below it and
   carries on under it. Nothing is re-walked, so nothing is memoized.

   A search walks one {!Reuse.analysis} cursor: a DFS links a child on
   descent and unlinks it on backtrack, so the walk derives no analysis
   record per node. Anything that outlives the cursor's visit to a node
   keeps that node's pair path, which is immutable, and builds its
   circuit from the path by {!Reuse.replay}.

   A search state belongs to one descent or one single search and is
   shared with nothing else. It holds the anytime incumbent, which the
   DFS updates at every node it derives. *)

type state = {
  circuit : Quantum.Circuit.t;
  (* The search's cursor, once a search has begun. *)
  mutable cursor : Reuse.analysis option;
  (* The incumbent: the derived node of least usage, as its applied
     pairs (newest first; [[]]: the input itself) and, on a circuit with
     barriers, where the cursor holds each node's circuit anyway, that
     circuit; then that usage; the nodes derived so far; and the
     candidate branches not yet tried on the live DFS stack. *)
  mutable best : Reuse.pair list;
  mutable best_built : Quantum.Circuit.t option;
  mutable width : int;
  mutable steps : int;
  mutable frontier : int;
}

let new_state circuit =
  {
    circuit;
    cursor = None;
    best = [];
    best_built = None;
    width = Reuse.qubit_usage circuit;
    steps = 0;
    frontier = 0;
  }

(* Candidate orderings for the backtracking search. [Score] is greedy
   on the predicted depth ({!Reuse.predict_depth}), the paper's
   critical-path rule; [Chain] reuses the earliest-finishing wire first,
   which builds serial chains (the paper's Fig. 1 construction) and
   keeps merge options open for deep reductions. Either way a node's
   candidates are one slice of pair codes on an int stack the DFS owns
   ({!Reuse.push_ranked}), pushed by its frame and popped when the
   frame returns ([Both] searches with [Score] first, then [Chain]). *)
let rank = function Score | Both -> Reuse.By_depth | Chain -> Reuse.By_chain

(* ---- Transposition replay ----

   A reuse solution is a set of wire chains, not a sequence: applying
   the same links in another order reaches the same node. On a
   barrier-free circuit ({!Reuse.splice_is_local}) the links fix the
   node's DAG up to gate renumbering — each wire's and clbit's gate
   order, and whether each reset splice reuses a final measurement — so
   the reach relation, interaction graph, schedules, scores and
   candidate order are fixed too, and with them the node's whole
   subtree under one candidate ordering. Each DFS keys its nodes by
   [next] (see {!State}), with a hash updated in O(1) per applied link
   and undone on backtrack, and stores every subtree that ended
   [Exhausted] with the nodes it counted. Every node of such a subtree
   had a usage above the target of its time, and targets only fall, so
   met again the subtree is exhausted again after exactly as many nodes:
   the DFS credits that count to the node cap instead of linking the
   cursor through it again. Past [table_cap] entries subtrees are simply
   explored. *)

(* A DFS node's wire-chain state: [next.(q)] is the original qubit that
   follows [q] on its wire, or -1. [hash] is maintained incrementally by
   the DFS; equality compares the whole state, so a hash collision never
   aliases. *)
module State = struct
  type t = { hash : int; next : int array }

  let equal a b = a.hash = b.hash && a.next = b.next
  let hash s = s.hash
end

module Transpositions = Hashtbl.Make (State)

let table_cap = 20_000

(* One link's hash contribution: a multiply-xorshift mix of the pair. *)
let link_hash tail dst =
  let x = (tail * 0x2545_f491_4f6c_dd1d) lxor dst in
  let x = (x lxor (x lsr 29)) * 0x1b87_3593_9e37_79b9 in
  x lxor (x lsr 32)

(* How a DFS ended: stopped by [found], [Exhausted] (the whole space
   under its ordering explored) or [Cut] by the node cap. *)
type outcome = Stopped | Exhausted | Cut

(* [dfs st cur order budget target found] searches down from the
   cursor's node, the root. At a node whose usage is at most [!target]
   it calls [found path nodes] ([nodes]: the DFS's node count there),
   which returns whether to carry on below the node; [false] stops the
   DFS. Returns how the DFS ended and its count, with the cursor back at
   the root.

   The node count and the replay counts accumulate here and reach
   {!Obs.Metrics} once, when the DFS ends — by a return or by a
   [Guard.Budget] trip — with the cursor's link count ({!Reuse.flush}):
   one registry update per DFS instead of one per node. *)
let dfs st cur order budget target found =
  let nodes = ref 0 and replays = ref 0 and replayed = ref 0 in
  let transpose = Reuse.splice_is_local cur in
  let table = Transpositions.create 256 in
  let k = st.circuit.Quantum.Circuit.num_qubits in
  (* [tail.(w)]: the last original qubit on wire [w]'s chain *)
  let next = Array.make k (-1) and tail = Array.init k Fun.id in
  let hash = ref 0 in
  let rank = rank order in
  let cands = Reuse.stack () in
  let replay counted =
    incr replays;
    let credit = min counted (budget + 1 - !nodes) in
    replayed := !replayed + credit;
    nodes := !nodes + credit;
    if !nodes > budget then Cut else Exhausted
  in
  let rec visit path =
    if Reuse.usage cur <= !target && not (found path !nodes) then Stopped
    else if !nodes > budget then Cut
    else begin
      let base = cands.Reuse.len in
      let n = Reuse.push_ranked cur rank cands in
      st.frontier <- st.frontier + n;
      let r = attempt path base n 0 in
      cands.Reuse.len <- base;
      r
    end
  (* Candidate [i] of the frame whose [n] candidates start at [base].
     A frame that returns early takes its untried branches along. *)
  and attempt path base n i =
    if i = n then Exhausted
    else begin
      incr nodes;
      Guard.Inject.hit "qs.search";
      Guard.Budget.checkpoint ~stage:"core.qs" ~site:"qs.search";
      if !nodes > budget then begin
        st.frontier <- st.frontier - (n - i);
        Cut
      end
      else begin
        st.frontier <- st.frontier - 1;
        let code = cands.Reuse.items.(base + i) in
        let src = code / k and dst = code mod k in
        let t = tail.(src) in
        let link = link_hash t dst in
        next.(t) <- dst;
        tail.(src) <- tail.(dst);
        hash := !hash lxor link;
        let stored =
          if transpose then
            Transpositions.find_opt table { State.hash = !hash; next }
          else None
        in
        let r =
          match stored with
          | Some counted -> replay counted
          | None -> expand path { Reuse.src; dst }
        in
        next.(t) <- -1;
        tail.(src) <- t;
        hash := !hash lxor link;
        match r with
        | Exhausted -> attempt path base n (i + 1)
        | Stopped | Cut ->
          st.frontier <- st.frontier - (n - i - 1);
          r
      end
    end
  and expand path p =
    Reuse.link cur p;
    let path = p :: path in
    let usage = Reuse.usage cur in
    st.steps <- st.steps + 1;
    if usage < st.width then begin
      st.best <- path;
      st.best_built <- (if transpose then None else Some (Reuse.circuit cur));
      st.width <- usage
    end;
    let start = !nodes in
    let r = visit path in
    Reuse.unlink cur;
    (match r with
     | Exhausted when transpose && Transpositions.length table < table_cap ->
       Transpositions.add table
         { State.hash = !hash; next = Array.copy next }
         (!nodes - start)
     | Exhausted | Stopped | Cut -> ());
    r
  in
  (* A counter is bumped wherever the per-node bumps it replaces would
     have been: a replay that credits no node still shows its keys. *)
  let publish () =
    if !nodes > 0 || !replays > 0 then
      Obs.Metrics.incr ~by:!nodes "qs.search.nodes";
    if !replays > 0 then begin
      Obs.Metrics.incr ~by:!replays "qs.search.replays";
      Obs.Metrics.incr ~by:!replayed "qs.search.replayed_nodes"
    end;
    Reuse.flush cur
  in
  let r = Fun.protect ~finally:publish (fun () -> visit []) in
  (r, !nodes)

(* [search st opts ~target ~found] looks for [target] qubits. At each
   node that meets the target it calls [found cur path] (the cursor at
   the node, and the node's pairs, newest first), which
   returns whether to go on deeper: the search then looks for one qubit
   fewer than the node uses. A target below 1 ends it, and so does one
   below the width floor, which cannot be reached, without expanding a
   node. [Both] runs [Score] first. Once [Score] fails at some target it
   fails at every lower one, so [Chain] takes over from the root at that
   target and [Score] is not tried again.

   ["qs.search.nodes"] counts what one fresh search per target would
   (the count [Fuzz.Qs_ref] keeps). Each time the search goes deeper it
   credits the nodes that fresh search would spend to reach the found
   node again — the DFS's count there, plus under [Chain] the count of
   [Score]'s repeated failure — and counts the credit in
   ["qs.search.resumed_nodes"] too. *)
let search st opts ~target ~found =
  Obs.Metrics.time "time.search" @@ fun () ->
  let cur = Reuse.analyze st.circuit in
  st.cursor <- Some cur;
  let floor = floor_of_analysis cur in
  let opens t =
    Obs.Metrics.incr "qs.searches";
    t >= floor || (Obs.Metrics.incr "qs.search.floor_skips"; false)
  in
  let target = ref target and failed = ref 0 in
  let on_found path nodes =
    let t = Reuse.usage cur - 1 in
    if found cur path && t >= 1 && opens t then begin
      target := t;
      Obs.Metrics.incr ~by:(!failed + nodes) "qs.search.nodes";
      Obs.Metrics.incr ~by:(!failed + nodes) "qs.search.resumed_nodes";
      true
    end
    else false
  in
  if opens !target then
    let dfs order = dfs st cur order opts.budget target on_found in
    match opts.order with
    | (Score | Chain) as order -> ignore (dfs order)
    | Both -> (
      match dfs Score with
      | Stopped, _ -> ()
      | (Exhausted | Cut), nodes ->
        failed := nodes;
        ignore (dfs Chain))

(* The tradeoff sweep, from one qubit below the input's usage down to
   the first target the search cannot reach. A Budget_exceeded trip
   escapes, with the state's incumbent intact. *)
let descend st opts on_found =
  let first = Reuse.qubit_usage st.circuit - 1 in
  if first >= 1 then
    search st opts ~target:first ~found:(fun cur path ->
        on_found cur path;
        true)

(* The first node that meets [target], as its circuit (built while the
   cursor stands there), usage and path. *)
let search_once st opts target =
  let hit = ref None in
  search st opts ~target ~found:(fun cur path ->
      hit := Some (Reuse.circuit cur, Reuse.usage cur, path);
      false);
  !hit

let sweep ?(opts = default_opts) circuit =
  let steps = ref [ Engine.make_step circuit [] ] in
  descend (new_state circuit) opts (fun cur path ->
      let step = Engine.make_step (Reuse.circuit cur) (List.rev path) in
      steps := step :: !steps);
  List.rev !steps

(* The greedy step is the first search of the descent: one qubit fewer
   is reached by the best-scored valid pair, so this is row 1 of
   [sweep]. *)
let reduce_once circuit =
  let target = Reuse.qubit_usage circuit - 1 in
  match search_once (new_state circuit) default_opts target with
  | Some (c, _, [ pair ]) -> Some (pair, c)
  | Some _ | None -> None

(* ---- Anytime search: the quality/time dial ----

   The search above, read through its best-so-far incumbent: every DFS
   node with fewer active qubits than the incumbent becomes the
   incumbent (its pair path, so no circuit is built per node). A
   wall-clock [Guard.Budget] trip returns the incumbent tagged [Anytime]
   instead of letting the failure escape, so the degradation ladder
   never has to throw partial work away. A replayed subtree derives no
   node and so moves no incumbent field; that is sound because every
   stored subtree was explored, and counted, by the same incumbent.

   Only the wall clock makes a result [Anytime]. The DFS node cap
   ([opts.budget]) ending the final search is the configured engine
   running to its deterministic completion — same options, same result,
   every run — so it stays [Exact]: callers (the serve cache in
   particular) rely on [Exact] meaning deadline-independent. *)

(* The incumbent's circuit is built only when it is returned, by
   replaying its pairs from the cursor's root. *)
let incumbent ?quality st =
  let pairs = List.rev st.best in
  let c =
    match (st.best_built, st.cursor) with
    | Some c, _ -> c
    | None, Some cur -> Reuse.replay cur pairs
    | None, None -> st.circuit
  in
  Engine.of_pairs ?quality ~width:st.width c pairs

let anytime_return st =
  Obs.Metrics.incr "qs.anytime.returns";
  incumbent st
    ~quality:
      (Quality.Anytime { steps_done = st.steps; frontier_left = st.frontier })

let max_reuse_anytime ?(opts = default_opts) circuit =
  let st = new_state circuit in
  match descend st opts (fun _ _ -> ()) with
  | () -> incumbent st
  | exception Guard.Error.Budget_exceeded _ -> anytime_return st

let min_qubits ?opts circuit = (max_reuse_anytime ?opts circuit).Engine.width
let max_reuse ?opts circuit = (max_reuse_anytime ?opts circuit).Engine.circuit

let search_anytime ?(opts = default_opts) ~target circuit =
  let st = new_state circuit in
  match search_once st opts target with
  | Some (c, usage, path) ->
    Some (Engine.of_pairs ~width:usage c (List.rev path))
  | None -> None
  | exception Guard.Error.Budget_exceeded _ -> Some (anytime_return st)
