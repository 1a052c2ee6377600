(** Matchings in general graphs.

    The QAOA scheduler (paper §3.2.2, Step 3) schedules one layer of
    commuting two-qubit gates per round by computing a maximum-weight
    matching of the remaining interaction graph, where edges touching
    qubits involved in a pending reuse get a large priority weight. *)

(** A matching as a partner array: [mate.(v)] is the vertex matched to [v],
    or [-1] if [v] is unmatched. *)
type t = int array

(** Maximum-cardinality matching via Edmonds' blossom algorithm
    (O(V^3)). Works on general (non-bipartite) graphs. *)
val blossom : Graph.t -> t

val cardinality : t -> int

(** Check symmetry, range, and that matched pairs are actual edges. *)
val is_valid : Graph.t -> t -> bool

(** A maximal matching admits no free edge (both endpoints unmatched). *)
val is_maximal : Graph.t -> t -> bool

(** {2 Flat kernel}

    {!blossom} is an adapter over this one implementation. Callers that
    match many rounds of a shrinking graph (the commutable scheduler)
    drive it directly, without building a {!Graph.t} per round. *)

(** Flat adjacency: the neighbours of [v] are
    [nbr.(start.(v)) .. nbr.(start.(v) + len.(v) - 1)], in increasing
    order. Owners may shrink a list in place (decrement [len] after
    closing the gap) to delete edges. *)
type adj = { start : int array; len : int array; nbr : int array }

val adj_of_graph : Graph.t -> adj

(** Scratch buffers for one adjacency layout: [work a] serves [a] and
    every adjacency obtained from it by deleting entries in place.

    Nothing in it is refilled per augmenting-path search. The search
    state ([used], parent and blossom base of each vertex), the LCA
    marks and the blossom marks hold a vertex's value only while its
    stamp equals the current search's, walk's or contraction's; stamps
    come from one counter that only grows, so a call never reads a
    stale mark, also after an earlier call on the same [work] raised. *)
type work

val work : adj -> work

(** [priority_into w a ~elig ~prio] is the two-level matching the
    CaQR scheduler runs each round. An edge of [a] is eligible when
    [elig] holds at both endpoints, and a priority edge when [prio]
    holds at either. One pass splits the eligible edges into the two
    phase subgraphs. Phase 1 computes a maximum matching of the
    priority edges (blossom); phase 2 extends it with a maximum
    matching of the other eligible edges, running on the same mates
    with the vertices phase 1 matched masked out. This keeps every
    priority match, exactly the bias the paper wants, while remaining
    polynomial.

    Each augmenting-path search runs one {!Guard.Budget.checkpoint}
    and then one ["match.augment"] injection hit. Roots are tried in
    ascending order, and a free vertex with no edge to an unmasked
    vertex starts no search. So the searches, their order, their hits
    and the resulting mates are those of blossom run on the two phase
    subgraphs built as separate graphs, which is what the
    closure-driven kernel this one replaced did ([test/matching_ref.ml]
    keeps it as the oracle). The result is owned by [w] and overwritten
    by the next call. *)
val priority_into : work -> adj -> elig:bool array -> prio:bool array -> t

(** [greedy_into w a ~elig ~prio] is a greedy maximal matching of the
    eligible edges: it scans them by decreasing key and takes every edge
    whose endpoints are free. The key is the priority flag, then the
    sum [a.len.(u) + a.len.(v)]; ties keep lexicographic edge order (a
    stable bucket sort). This is exactly the order of the float weight
    [10000 + sum] per priority edge and [sum] per other edge that the
    scheduler ranked by before. Same ownership as {!priority_into}. *)
val greedy_into : work -> adj -> elig:bool array -> prio:bool array -> t
