type order = Score | Chain | Both
type search_opts = { budget : int; order : order }

let default_opts = { budget = 400; order = Both }

(* Candidate orderings for the backtracking search. [Score] is greedy
   on the predicted depth ({!Reuse.predict_depth}), the paper's
   critical-path rule; [Chain] reuses the earliest-finishing wire first,
   which builds serial chains (the paper's Fig. 1 construction) and
   keeps merge options open for deep reductions. Either way a node's
   candidates are one flat array of pair codes ({!Reuse.ranked}). *)
let ordered_candidates order analysis =
  Reuse.ranked analysis
    (match order with Score | Both -> Reuse.By_depth | Chain -> Reuse.By_chain)

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

(* ---- The memoizing incremental engine ----

   One cache outlives every search of a sweep: DFS prefixes are keyed by
   the applied-pair sequence, so when the sweep restarts the search for a
   deeper qubit target, the shared prefix (the greedy spine plus every
   backtracked branch already explored) replays from the cache instead of
   re-deriving analyses and re-sorting candidates. Each prefix is
   interned once as an int id — the root is [root_prefix], and a child
   is looked up by its parent's id and the applied pair — so a memo
   lookup hashes three ints rather than the whole pair sequence. The
   width floor of the cache's circuit is computed on first use.

   Pair sequences that apply the same links in another order reach the
   same node, so the cache also keeps a transposition table: see
   "Transposition replay" below. *)

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

type cache = {
  prefixes : (int * int * int, int) Hashtbl.t;
  mutable next_prefix : int;
  analyses : (int, Reuse.analysis) Hashtbl.t;
  candidates : (int, int array) Hashtbl.t;
  replays : replay Transpositions.t;
  mutable floor : int option;
}

(* Caps the tables on degenerate inputs (enormous sweeps); entries past
   the cap are simply recomputed on demand. *)
let cache_capacity = 20_000

let root_prefix = 0

let new_cache () =
  {
    prefixes = Hashtbl.create 256;
    next_prefix = root_prefix;
    analyses = Hashtbl.create 256;
    candidates = Hashtbl.create 256;
    replays = Transpositions.create 256;
    floor = None;
  }

(* A prefix past the cap gets a fresh id that is never stored, so its
   entries miss and are recomputed, as they would be anyway. *)
let child_prefix cache parent (p : Reuse.pair) =
  let key = (parent, p.Reuse.src, p.Reuse.dst) in
  match Hashtbl.find_opt cache.prefixes key with
  | Some id -> id
  | None ->
    cache.next_prefix <- cache.next_prefix + 1;
    let id = cache.next_prefix in
    if Hashtbl.length cache.prefixes < cache_capacity then
      Hashtbl.add cache.prefixes key id;
    id

let cached tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v ->
    Obs.Metrics.incr "qs.cache.hit";
    v
  | None ->
    Obs.Metrics.incr "qs.cache.miss";
    let v = compute () in
    if Hashtbl.length tbl < cache_capacity then Hashtbl.add tbl key v;
    v

let root_analysis cache circuit =
  cached cache.analyses root_prefix (fun () -> Reuse.analyze circuit)

let child_analysis cache parent pair id =
  cached cache.analyses id (fun () -> Reuse.apply_incremental parent pair)

(* The candidate ordering a memo entry belongs to ([Both] searches
   with [Score] first, then [Chain]). *)
let order_tag = function Score | Both -> 0 | Chain -> 1

let candidates_for cache order analysis id =
  cached cache.candidates ((2 * id) + order_tag order) (fun () ->
      ordered_candidates order analysis)

let width_floor_cached cache circuit =
  match cache.floor with
  | Some f -> f
  | None ->
    let f = floor_of_analysis (root_analysis cache circuit) in
    cache.floor <- Some f;
    f

(* The anytime layer watches the DFS through this hook: [note] fires on
   every node (usage, analysis, reversed pair prefix) so an incumbent can
   be maintained without building a circuit per node, and [frontier]
   tracks how many counted candidate branches were never tried —
   positive deltas when a node's candidate list is generated, -1 as each
   is attempted. *)
type observer = {
  note : int -> Reuse.analysis -> Reuse.pair list -> unit;
  frontier : int -> unit;
}

(* A search ends one of three ways, and the quality marker needs to tell
   the last two apart: [Exhausted] means the whole space (under this
   candidate ordering) was explored, [Cut] means the node cap ended it
   early — more budget could still find a solution. *)
type outcome =
  | Found of Reuse.analysis * Reuse.pair list
  | Exhausted
  | Cut

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
   are capped like the memo tables; past the cap subtrees are simply
   explored. *)

(* One link's hash contribution: a multiply-xorshift mix of the pair. *)
let link_hash tail dst =
  let x = (tail * 0x2545_f491_4f6c_dd1d) lxor dst in
  let x = (x lxor (x lsr 29)) * 0x1b87_3593_9e37_79b9 in
  x lxor (x lsr 32)

let search_incremental ?observer ~cache order budget target circuit =
  let nodes = ref 0 in
  let note u a rp = match observer with Some o -> o.note u a rp | None -> () in
  let frontier d =
    match observer with Some o -> o.frontier d | None -> ()
  in
  let root = root_analysis cache circuit in
  let transpose = Reuse.splice_is_local root in
  let k = (Reuse.circuit root).Quantum.Circuit.num_qubits in
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
  let rec go analysis id rev_pairs =
    if Reuse.usage analysis <= target then
      Found (analysis, List.rev rev_pairs)
    else if !nodes > budget then Cut
    else begin
      let cands = candidates_for cache order analysis id in
      frontier (Array.length cands);
      let rec attempt i =
        if i = Array.length cands then Exhausted
        else begin
          incr nodes;
          Obs.Metrics.incr "qs.search.nodes";
          Guard.Inject.hit "qs.search";
          Guard.Budget.checkpoint ~stage:"core.qs" ~site:"qs.search";
          if !nodes > budget then Cut
          else begin
            frontier (-1);
            let src = cands.(i) / k and dst = cands.(i) mod k in
            let t = tail.(src) in
            let link = link_hash t dst in
            next.(t) <- dst;
            tail.(src) <- tail.(dst);
            hash := !hash lxor link;
            let stored =
              if transpose then Transpositions.find_opt cache.replays (key ())
              else None
            in
            let r =
              match stored with
              | Some r when r.least > target -> replay r
              | _ -> expand analysis id { Reuse.src; dst } rev_pairs
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
  and expand analysis id p rev_pairs =
    let rev_pairs' = p :: rev_pairs in
    let id' = child_prefix cache id p in
    let child = child_analysis cache analysis p id' in
    let usage = Reuse.usage child in
    note usage child rev_pairs';
    let outer = !least and start = !nodes in
    least := usage;
    let r = go child id' rev_pairs' in
    (match r with
     | Exhausted
       when transpose && Transpositions.length cache.replays < cache_capacity ->
       Transpositions.add cache.replays
         { (key ()) with State.next = Array.copy next }
         { counted = !nodes - start; least = !least }
     | _ -> ());
    least := min outer !least;
    r
  in
  go root root_prefix []

(* Both falls back from the Score ordering to the Chain ordering. *)
let with_order opts dfs =
  match opts.order with
  | (Score | Chain) as order -> dfs order
  | Both -> (
    match dfs Score with
    | Found _ as r -> r
    | first -> (
      match dfs Chain with
      | Found _ as r -> r
      | Exhausted -> first (* Cut on the Score pass still means "cut" *)
      | Cut -> Cut))

(* A target below the width floor cannot be reached, so the search ends
   [Exhausted] before expanding a single node. *)
let search_out ?observer ~cache opts target circuit =
  Obs.Metrics.incr "qs.searches";
  Obs.Metrics.time "time.search" @@ fun () ->
  if target < width_floor_cached cache circuit then begin
    Obs.Metrics.incr "qs.search.floor_skips";
    Exhausted
  end
  else
    with_order opts (fun order ->
        search_incremental ?observer ~cache order opts.budget target circuit)

let found = function
  | Found (a, pairs) -> Some (Reuse.circuit a, pairs)
  | Exhausted | Cut -> None

let search ?(opts = default_opts) ~target circuit =
  found (search_out ~cache:(new_cache ()) opts target circuit)

(* The one descent. The tradeoff sweep re-searches from the original
   circuit for every qubit limit (the paper: "for each application, we
   tried different qubit limit numbers, and generate different compiled
   circuits"). A fresh search per target avoids greedy dead ends
   polluting deeper points: reaching k - 1 always passes through some
   k-qubit circuit, so the descent stops at the first unreachable target
   and returns how that search ended. [search] closes over one memo
   cache, so each restart replays its predecessor's prefix for free. *)
let descend ~search circuit on_found =
  let rec go target =
    if target < 1 then Exhausted
    else
      match search target with
      | Found (a, pairs) ->
        on_found a pairs;
        go (Reuse.usage a - 1)
      | (Exhausted | Cut) as ending -> ending
  in
  go (Reuse.qubit_usage circuit - 1)

let sweep ?(opts = default_opts) circuit =
  let cache = new_cache () in
  let steps = ref [ Engine.make_step circuit [] ] in
  ignore
    (descend circuit
       ~search:(fun target -> search_out ~cache opts target circuit)
       (fun a pairs ->
         steps := Engine.make_step (Reuse.circuit a) pairs :: !steps));
  List.rev !steps

(* The greedy step is the first search of the descent: one qubit fewer
   is reached by the best-scored valid pair, so this is row 1 of
   [sweep]. *)
let reduce_once circuit =
  match search ~target:(Reuse.qubit_usage circuit - 1) circuit with
  | Some (c, [ pair ]) -> Some (pair, c)
  | Some _ | None -> None

let opportunity circuit =
  let analysis = Reuse.analyze circuit in
  match Reuse.valid_pairs analysis with
  | [] -> None
  | p :: _ -> Some p

(* ---- Anytime search: the quality/time dial ----

   The descent above, instrumented with a best-so-far incumbent: every
   DFS node with fewer active qubits than the incumbent snapshots
   (circuit, pairs). A wall-clock [Guard.Budget] trip returns the
   incumbent tagged [Anytime] instead of letting the failure escape, so
   the degradation ladder never has to throw partial work away.

   Only the wall clock makes a result [Anytime]. The DFS node cap
   ([opts.budget]) ending the final search is the configured engine
   running to its deterministic completion — same options, same result,
   every run — so it stays [Exact]: callers (the serve cache in
   particular) rely on [Exact] meaning deadline-independent. *)

(* The incumbent is the best node's analysis ([None]: the input itself);
   its circuit is built only when the incumbent is returned. *)
let incumbent_observer circuit =
  let best = ref (None, [], Reuse.qubit_usage circuit) in
  let steps = ref 0 and frontier = ref 0 in
  let observer =
    {
      note =
        (fun u a rev_pairs ->
          incr steps;
          let _, _, usage = !best in
          if u < usage then best := (Some a, List.rev rev_pairs, u));
      frontier = (fun d -> frontier := !frontier + d);
    }
  in
  (best, steps, frontier, observer)

let incumbent ?quality circuit (a, pairs, width) =
  let c = match a with Some a -> Reuse.circuit a | None -> circuit in
  Engine.of_pairs ?quality ~width c pairs

let anytime_return circuit best steps frontier =
  Obs.Metrics.incr "qs.anytime.returns";
  incumbent circuit best
    ~quality:
      (Quality.Anytime { steps_done = steps; frontier_left = max 0 frontier })

let max_reuse_anytime ?(opts = default_opts) circuit =
  let cache = new_cache () in
  let best, steps, frontier, observer = incumbent_observer circuit in
  match
    descend circuit
      ~search:(fun target -> search_out ~observer ~cache opts target circuit)
      (fun _ _ ->
        (* Leftover branch counts from a solved search are not "space
           left unexplored" — the descent moves on to a deeper target. *)
        frontier := 0)
  with
  | Found _ | Exhausted | Cut -> incumbent circuit !best
  | exception Guard.Error.Budget_exceeded _ ->
    anytime_return circuit !best !steps !frontier

let min_qubits ?opts circuit = (max_reuse_anytime ?opts circuit).Engine.width
let max_reuse ?opts circuit = (max_reuse_anytime ?opts circuit).Engine.circuit

let search_anytime ?(opts = default_opts) ~target circuit =
  let cache = new_cache () in
  let best, steps, frontier, observer = incumbent_observer circuit in
  match search_out ~observer ~cache opts target circuit with
  | Found (a, pairs) ->
    Some (Engine.of_pairs ~width:(Reuse.usage a) (Reuse.circuit a) pairs)
  | Exhausted | Cut -> None
  | exception Guard.Error.Budget_exceeded _ ->
    Some (anytime_return circuit !best !steps !frontier)
