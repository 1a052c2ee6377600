(** QS-CaQR: qubit-saving qubit reuse for regular circuits (paper §3.2.1).

    Strategy: start from the original qubit count and retire one qubit per
    step by applying the valid reuse pair whose predicted critical path is
    smallest, until the user's budget is met or no valid pair remains.
    A full sweep keeps every intermediate version so callers can pick the
    maximal-reuse or minimal-depth point (Table 1) or plot the
    qubit-vs-depth tradeoff (Figs. 3, 13, 14).

    Every search entry point but {!reduce_once} takes one {!search_opts}
    value, so a sweep and a targeted search can share a configuration. *)

(** Candidate ordering for the backtracking search. [Score] is pure
    greedy on {!Reuse.predict_depth}, the critical-path impact the paper
    ranks pairs by; [Chain] pairs the earliest-finishing wire with the
    earliest-starting qubit (the paper's Fig. 1 serial construction);
    [Both] falls back from the first to the second — exposed separately
    so the ablation bench can compare them. *)
type order = Score | Chain | Both

(** One options value shared by {!search_anytime}, {!sweep},
    {!min_qubits} and {!max_reuse}. Build variations with functional update:
    [{ default_opts with budget = 40 }]. *)
type search_opts = {
  budget : int;  (** DFS node budget per search (default 400) *)
  order : order;
}

val default_opts : search_opts

(** [reduce_once circuit] applies the best single reuse — the valid
    pair of least predicted depth, ties to the first in
    {!Reuse.valid_pairs} order — or [None] when no valid pair exists.
    It is the first search of {!sweep}'s descent: row 1 of
    [sweep circuit] is its pair and circuit. *)
val reduce_once : Quantum.Circuit.t -> (Reuse.pair * Quantum.Circuit.t) option

(** [sweep ?opts circuit] returns the full reduction trajectory,
    starting with the untouched circuit and descending one qubit target
    at a time as low as the search reaches. The targets share one DFS
    per candidate ordering: at a node that meets the target the row is
    recorded, the target drops below it and the DFS carries on under
    the node, since a fresh search for the lower target would walk the
    same nodes to reach it. A search walks one {!Reuse.analysis} cursor,
    which {!Reuse.link} moves to a DFS child in place and
    {!Reuse.unlink} moves back, building no circuit (only each row's
    circuit is built, by {!Reuse.circuit}). On a barrier-free
    circuit a transposition table goes with each DFS: a subtree already
    exhausted through any pair order that applies the same reuse links
    is credited to the node cap by its node count instead of being
    explored again (["qs.search.replays"],
    ["qs.search.replayed_nodes"]). ["qs.search.nodes"] still counts
    every node of a plain DFS per target: the prefix such a search
    would walk again to reach a found node is credited there and in
    ["qs.search.resumed_nodes"]. *)
val sweep : ?opts:search_opts -> Quantum.Circuit.t -> Engine.step list

(** Fewest qubits reachable (greedy tightened by backtracking search):
    the width of {!max_reuse_anytime}. Under an armed wall-clock
    {!Guard.Budget} deadline that may be a partial incumbent's width;
    call {!max_reuse_anytime} to see the quality marker. *)
val min_qubits : ?opts:search_opts -> Quantum.Circuit.t -> int

(** The maximal-reuse version of the circuit ([min_qubits] wires): the
    circuit of {!max_reuse_anytime}, with the same caveat under an armed
    wall-clock deadline. *)
val max_reuse : ?opts:search_opts -> Quantum.Circuit.t -> Quantum.Circuit.t

(** [width_floor circuit] is a lower bound on the qubits any reuse
    sequence can reach: the size of a clique of mutually reaching active
    qubits, which no reuse can ever put on one wire. Every search entry
    point fails at once, without expanding a DFS node, for a target
    below it, bumping ["qs.search.floor_skips"]. The reference search
    in [Fuzz.Qs_ref] ignores it, so comparing the two also checks it is
    sound. *)
val width_floor : Quantum.Circuit.t -> int

(** [max_reuse_anytime ?opts circuit] descends one qubit target at a
    time, as {!sweep} does, and returns the deepest circuit reached with
    its pair certificate. The result is {!Quality.Exact} when the wall
    clock does not intervene — this includes the DFS node cap
    [opts.budget] ending the final search, which is the configured
    search's deterministic completion, not a deadline artifact. On a
    wall-clock {!Guard.Budget} trip it returns the deepest incumbent
    found so far tagged {!Quality.Anytime} and bumps the
    ["qs.anytime.returns"] counter; its pairs still revalidate through
    [Verify.Structural.check_pairs]. The returned width is
    monotonically non-increasing in both the wall budget and
    [opts.budget]: a bigger budget explores a superset of the same
    deterministic DFS order. *)
val max_reuse_anytime :
  ?opts:search_opts -> Quantum.Circuit.t -> Engine.artifact

(** [search_anytime ?opts ~target circuit] answers the paper's user
    query "can this circuit run on [target] qubits?": it looks for a
    reuse sequence reaching [target] qubits, trying candidates
    best-score-first with budgeted DFS backtracking — greedy alone can
    trap itself (two parallel chains interleaved on a shared partner
    can never merge later). It returns [Some {quality = Exact; _}], the
    transformed circuit and its applied pairs, when [target] is
    reached; [None] when the search space (or node cap) is exhausted
    without reaching it; and, on a wall-clock budget trip,
    [Some {quality = Anytime _; _}] carrying the best incumbent (whose
    width may still be above [target]). *)
val search_anytime :
  ?opts:search_opts -> target:int -> Quantum.Circuit.t -> Engine.artifact option
