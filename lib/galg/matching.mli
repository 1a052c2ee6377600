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

(** Greedy maximal matching: scan edges by decreasing weight (ties by
    lexicographic edge order) and take every edge whose endpoints are
    free. [weight u v] must be symmetric. *)
val greedy : weight:(int -> int -> float) -> Graph.t -> t

(** Two-level maximum-weight matching for the CaQR scheduler. Edges with
    [priority u v = true] carry weight [w >> 1]; others weight 1. Phase 1
    computes a maximum matching of the priority subgraph (blossom); phase 2
    extends it with a maximum matching of the non-priority edges induced on
    the still-free vertices. This keeps every priority match — exactly the
    bias the paper wants — while remaining polynomial. *)
val priority_matching : priority:(int -> int -> bool) -> Graph.t -> t

val cardinality : t -> int

(** Check symmetry, range, and that matched pairs are actual edges. *)
val is_valid : Graph.t -> t -> bool

(** A maximal matching admits no free edge (both endpoints unmatched). *)
val is_maximal : Graph.t -> t -> bool

(** {2 Flat kernel}

    {!blossom}, {!greedy} and {!priority_matching} are adapters over this
    one implementation. Callers that match many rounds of a shrinking
    graph (the commutable scheduler) drive it directly, without building
    a {!Graph.t} per round. *)

(** Flat adjacency: the neighbours of [v] are
    [nbr.(start.(v)) .. nbr.(start.(v) + len.(v) - 1)], in increasing
    order. Owners may shrink a list in place (decrement [len] after
    closing the gap) to delete edges. *)
type adj = { start : int array; len : int array; nbr : int array }

val adj_of_graph : Graph.t -> adj

(** Scratch buffers for matching graphs with the vertex count and at
    most the adjacency entries of the given {!adj}. *)
type work

val work : adj -> work

(** [priority_into w a ~keep ~priority] is {!priority_matching} on the
    edges of [a] that satisfy [keep]. Both predicates are called with
    [u < v]. The result is owned by [w] and overwritten by the next
    call. *)
val priority_into :
  work -> adj -> keep:(int -> int -> bool) -> priority:(int -> int -> bool) -> t

(** [greedy_into w a ~keep ~weight] is {!greedy} on the edges of [a]
    that satisfy [keep]; same ownership as {!priority_into}. *)
val greedy_into :
  work -> adj -> keep:(int -> int -> bool) -> weight:(int -> int -> float) -> t
