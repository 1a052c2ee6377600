type order = Score | Chain | Both
type search_opts = { budget : int; order : order }

let default_opts = { budget = 400; order = Both }

(* ---- Width floor ----

   Two active qubits that reach each other (some gate on each reaches a
   gate on the other) can never share a wire: a pair between them fails
   Condition 2 in either direction, and {!Reuse.apply_incremental} only
   grows reach — merging dst into src unions their rows and columns — so
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

(* ---- The search state ----

   One descent owns one search state, created by [new_state] and shared
   with nothing else. Its memo tree mirrors the DFS: a node is one
   applied-pair prefix and keeps its analysis, its path (the applied
   pairs, newest first, whose tail is its parent's path), one candidate
   slot per ordering, and its children by pair code. When the descent
   restarts the search for a deeper qubit target, the shared prefix (the
   greedy spine plus every backtracked branch already explored) replays
   from the tree instead of re-deriving analyses and re-sorting
   candidates.

   Pair sequences that apply the same links in another order reach the
   same node, so the state also keeps a transposition table (see
   "Transposition replay" below). It keeps the width floor of its
   circuit, computed on first use, and the anytime incumbent, which the
   DFS updates at every node it derives. *)

(* A DFS node's wire-chain state: [next.(q)] is the original qubit that
   follows [q] on its wire, or -1, under one candidate ordering
   ([order]). [hash] is maintained incrementally by the DFS; equality
   compares the whole state, so a hash collision never aliases. *)
module State = struct
  type t = { order : int; hash : int; next : int array }

  let equal a b = a.hash = b.hash && a.order = b.order && a.next = b.next
  let hash s = s.hash
end

module Transpositions = Hashtbl.Make (State)

(* What a subtree that ended [Exhausted] did: the DFS nodes it counted
   below its root, and the least usage any of its nodes reached. *)
type replay = { counted : int; least : int }

type node = {
  analysis : Reuse.analysis;
  path : Reuse.pair list;
  ranked : int array option array;  (* indexed by [order_tag] *)
  mutable children : (int * node) list;  (* by pair code *)
}

type state = {
  circuit : Quantum.Circuit.t;
  mutable root : node option;
  mutable stored : int;  (* tree nodes below the root *)
  replays : replay Transpositions.t;
  mutable floor : int option;
  (* The incumbent: the derived node of least usage ([None]: the input
     itself) and that usage, the nodes derived so far, and the counted
     candidate branches never tried — raised by a node's candidate count
     when its list is read, lowered by one as each is attempted. *)
  mutable best : node option;
  mutable width : int;
  mutable steps : int;
  mutable frontier : int;
}

(* Caps the tree and the transposition table on degenerate inputs
   (enormous sweeps); a node past the cap is not stored, so a later
   visit derives it again. *)
let node_cap = 20_000

let new_state circuit =
  {
    circuit;
    root = None;
    stored = 0;
    replays = Transpositions.create 256;
    floor = None;
    best = None;
    width = Reuse.qubit_usage circuit;
    steps = 0;
    frontier = 0;
  }

let count_lookup found =
  Obs.Metrics.incr (if found then "qs.cache.hit" else "qs.cache.miss")

let new_node analysis path =
  { analysis; path; ranked = [| None; None |]; children = [] }

let root st =
  count_lookup (st.root <> None);
  match st.root with
  | Some n -> n
  | None ->
    let n = new_node (Reuse.analyze st.circuit) [] in
    st.root <- Some n;
    n

let child st node code (p : Reuse.pair) =
  let found = List.assoc_opt code node.children in
  count_lookup (found <> None);
  match found with
  | Some n -> n
  | None ->
    let n =
      new_node (Reuse.apply_incremental node.analysis p) (p :: node.path)
    in
    if st.stored < node_cap then begin
      node.children <- (code, n) :: node.children;
      st.stored <- st.stored + 1
    end;
    n

(* Candidate orderings for the backtracking search. [Score] is greedy
   on the predicted depth ({!Reuse.predict_depth}), the paper's
   critical-path rule; [Chain] reuses the earliest-finishing wire first,
   which builds serial chains (the paper's Fig. 1 construction) and
   keeps merge options open for deep reductions. Either way a node's
   candidates are one flat array of pair codes ({!Reuse.ranked}), kept
   in the node's slot for that ordering ([Both] searches with [Score]
   first, then [Chain]). *)
let order_tag = function Score | Both -> 0 | Chain -> 1

let candidates node order =
  let slot = order_tag order in
  count_lookup (node.ranked.(slot) <> None);
  match node.ranked.(slot) with
  | Some c -> c
  | None ->
    let rank = if slot = 0 then Reuse.By_depth else Reuse.By_chain in
    let c = Reuse.ranked node.analysis rank in
    node.ranked.(slot) <- Some c;
    c

let floor st =
  match st.floor with
  | Some f -> f
  | None ->
    let f = floor_of_analysis (root st).analysis in
    st.floor <- Some f;
    f

(* A search ends one of three ways, and the quality marker needs to tell
   the last two apart: [Exhausted] means the whole space (under this
   candidate ordering) was explored, [Cut] means the node cap ended it
   early — more budget could still find a solution. *)
type outcome = Found of node | Exhausted | Cut

(* ---- Transposition replay ----

   A reuse solution is a set of wire chains, not a sequence: applying
   the same links in another order reaches the same node. On a
   barrier-free circuit ({!Reuse.splice_is_local}) the links fix the
   node's DAG up to gate renumbering — each wire's and clbit's gate
   order, and whether each reset splice reuses a final measurement — so
   the reach relation, interaction graph, schedules, scores and
   candidate order are fixed too, and with them the node's whole
   subtree under one candidate ordering. The DFS keys each node by
   [next] (see {!State}), with a hash updated in O(1) per applied link
   and undone on backtrack, and stores every subtree that ended
   [Exhausted]. Met again with its least usage above the target, such a
   subtree is exhausted again after exactly as many nodes, so the DFS
   credits that count to the node cap instead of deriving it. Entries
   are capped like the tree; past the cap subtrees are simply
   explored. *)

(* One link's hash contribution: a multiply-xorshift mix of the pair. *)
let link_hash tail dst =
  let x = (tail * 0x2545_f491_4f6c_dd1d) lxor dst in
  let x = (x lxor (x lsr 29)) * 0x1b87_3593_9e37_79b9 in
  x lxor (x lsr 32)

let search_incremental st order budget target =
  let nodes = ref 0 in
  let root = root st in
  let transpose = Reuse.splice_is_local root.analysis in
  let k = st.circuit.Quantum.Circuit.num_qubits in
  (* [tail.(w)]: the last original qubit on wire [w]'s chain *)
  let next = Array.make k (-1) and tail = Array.init k Fun.id in
  let hash = ref 0 in
  (* least usage reached in the subtree being explored *)
  let least = ref max_int in
  let tag = order_tag order in
  let key () = { State.order = tag; hash = !hash; next } in
  let replay r =
    Obs.Metrics.incr "qs.search.replays";
    let credit = min r.counted (budget + 1 - !nodes) in
    Obs.Metrics.incr ~by:credit "qs.search.nodes";
    Obs.Metrics.incr ~by:credit "qs.search.replayed_nodes";
    nodes := !nodes + credit;
    least := min !least r.least;
    if !nodes > budget then Cut else Exhausted
  in
  let rec go node =
    if Reuse.usage node.analysis <= target then Found node
    else if !nodes > budget then Cut
    else begin
      let cands = candidates node order in
      st.frontier <- st.frontier + Array.length cands;
      let rec attempt i =
        if i = Array.length cands then Exhausted
        else begin
          incr nodes;
          Obs.Metrics.incr "qs.search.nodes";
          Guard.Inject.hit "qs.search";
          Guard.Budget.checkpoint ~stage:"core.qs" ~site:"qs.search";
          if !nodes > budget then Cut
          else begin
            st.frontier <- st.frontier - 1;
            let code = cands.(i) in
            let src = code / k and dst = code mod k in
            let t = tail.(src) in
            let link = link_hash t dst in
            next.(t) <- dst;
            tail.(src) <- tail.(dst);
            hash := !hash lxor link;
            let stored =
              if transpose then Transpositions.find_opt st.replays (key ())
              else None
            in
            let r =
              match stored with
              | Some r when r.least > target -> replay r
              | _ -> expand node code { Reuse.src; dst }
            in
            next.(t) <- -1;
            tail.(src) <- t;
            hash := !hash lxor link;
            match r with
            | Found _ as r -> r
            | Cut -> Cut
            | Exhausted -> attempt (i + 1)
          end
        end
      in
      attempt 0
    end
  and expand node code p =
    let child = child st node code p in
    let usage = Reuse.usage child.analysis in
    st.steps <- st.steps + 1;
    if usage < st.width then begin
      st.best <- Some child;
      st.width <- usage
    end;
    let outer = !least and start = !nodes in
    least := usage;
    let r = go child in
    (match r with
     | Exhausted
       when transpose && Transpositions.length st.replays < node_cap ->
       Transpositions.add st.replays
         { (key ()) with State.next = Array.copy next }
         { counted = !nodes - start; least = !least }
     | _ -> ());
    least := min outer !least;
    r
  in
  go root

(* A target below the width floor cannot be reached, so the search ends
   [Exhausted] before expanding a single node. [Both] falls back from
   the Score ordering to the Chain ordering; a Cut on the Score pass
   still means "cut". *)
let search_out st opts target =
  Obs.Metrics.incr "qs.searches";
  Obs.Metrics.time "time.search" @@ fun () ->
  if target < floor st then begin
    Obs.Metrics.incr "qs.search.floor_skips";
    Exhausted
  end
  else
    let dfs order = search_incremental st order opts.budget target in
    match opts.order with
    | (Score | Chain) as order -> dfs order
    | Both -> (
      match dfs Score with
      | Found _ as r -> r
      | first -> (match dfs Chain with Exhausted -> first | r -> r))

let pairs node = List.rev node.path

(* The one descent. The tradeoff sweep re-searches from the original
   circuit for every qubit limit (the paper: "for each application, we
   tried different qubit limit numbers, and generate different compiled
   circuits"). A fresh search per target avoids greedy dead ends
   polluting deeper points: reaching k - 1 always passes through some
   k-qubit circuit, so the descent stops at the first unreachable target
   and reports how that search ended. The descent creates its search
   state, so each restart replays its predecessor's prefix from the
   tree, and the tree, the transposition table and the incumbent live
   exactly as long as the descent (what transposition replay needs; see
   "Anytime search" below). A wall-clock trip ends the descent
   [Error], with the state's incumbent intact. *)
let descend opts circuit on_found =
  let st = new_state circuit in
  let rec go target =
    if target < 1 then Exhausted
    else
      match search_out st opts target with
      | Found node ->
        on_found node;
        (* Leftover branch counts from a solved search are not "space
           left unexplored" — the descent moves on to a deeper target. *)
        st.frontier <- 0;
        go (Reuse.usage node.analysis - 1)
      | (Exhausted | Cut) as ending -> ending
  in
  match go (Reuse.qubit_usage circuit - 1) with
  | ending -> (st, Ok ending)
  | exception Guard.Error.Budget_exceeded e -> (st, Error e)

let sweep ?(opts = default_opts) circuit =
  let steps = ref [ Engine.make_step circuit [] ] in
  match
    descend opts circuit (fun node ->
        let step = Engine.make_step (Reuse.circuit node.analysis) (pairs node) in
        steps := step :: !steps)
  with
  | _, Ok _ -> List.rev !steps
  | _, Error e -> raise (Guard.Error.Budget_exceeded e)

(* The greedy step is the first search of the descent: one qubit fewer
   is reached by the best-scored valid pair, so this is row 1 of
   [sweep]. *)
let reduce_once circuit =
  let st = new_state circuit in
  match search_out st default_opts (Reuse.qubit_usage circuit - 1) with
  | Found { analysis; path = [ pair ]; _ } ->
    Some (pair, Reuse.circuit analysis)
  | Found _ | Exhausted | Cut -> None

(* ---- Anytime search: the quality/time dial ----

   The descent above, read through its best-so-far incumbent: every DFS
   node with fewer active qubits than the incumbent becomes the
   incumbent (the tree node itself, so no circuit is built per node). A
   wall-clock [Guard.Budget] trip returns the incumbent tagged [Anytime]
   instead of letting the failure escape, so the degradation ladder
   never has to throw partial work away. A replayed subtree derives no
   node and so moves no incumbent field; that is sound because the
   table and the incumbent belong to one state: every stored subtree
   was explored, and counted, by the same incumbent.

   Only the wall clock makes a result [Anytime]. The DFS node cap
   ([opts.budget]) ending the final search is the configured engine
   running to its deterministic completion — same options, same result,
   every run — so it stays [Exact]: callers (the serve cache in
   particular) rely on [Exact] meaning deadline-independent. *)

(* The incumbent's circuit is built only when it is returned. *)
let incumbent ?quality st =
  let c, pairs =
    match st.best with
    | Some node -> (Reuse.circuit node.analysis, pairs node)
    | None -> (st.circuit, [])
  in
  Engine.of_pairs ?quality ~width:st.width c pairs

let anytime_return st =
  Obs.Metrics.incr "qs.anytime.returns";
  incumbent st
    ~quality:
      (Quality.Anytime
         { steps_done = st.steps; frontier_left = max 0 st.frontier })

let max_reuse_anytime ?(opts = default_opts) circuit =
  match descend opts circuit ignore with
  | st, Ok _ -> incumbent st
  | st, Error _ -> anytime_return st

let min_qubits ?opts circuit = (max_reuse_anytime ?opts circuit).Engine.width
let max_reuse ?opts circuit = (max_reuse_anytime ?opts circuit).Engine.circuit

let search_anytime ?(opts = default_opts) ~target circuit =
  let st = new_state circuit in
  match search_out st opts target with
  | Found node ->
    Some
      (Engine.of_pairs ~width:(Reuse.usage node.analysis)
         (Reuse.circuit node.analysis) (pairs node))
  | Exhausted | Cut -> None
  | exception Guard.Error.Budget_exceeded _ -> Some (anytime_return st)
