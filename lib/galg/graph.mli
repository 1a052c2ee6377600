(** Simple undirected graphs on vertices [0 .. n-1].

    This is the substrate shared by the qubit interaction graphs (paper
    §3.2.2), the hardware coupling maps, and the QAOA problem graphs. The
    graphs involved are small (at most a few hundred vertices), so the
    representation favours clarity over asymptotic cleverness. *)

type t

(** [create n] is an edgeless graph with [n] vertices. *)
val create : int -> t

(** Number of vertices. *)
val order : t -> int

(** Number of edges. *)
val size : t -> int

(** [add_edge g u v] adds the undirected edge [{u, v}]. Adding an existing
    edge or a self loop is a no-op. Raises [Invalid_argument] if a vertex is
    out of range. *)
val add_edge : t -> int -> int -> unit

(** [remove_edge g u v] removes the edge if present. *)
val remove_edge : t -> int -> int -> unit

val has_edge : t -> int -> int -> bool

(** Neighbors of a vertex, in increasing order. *)
val neighbors : t -> int -> int list

val degree : t -> int -> int

(** Maximum degree over all vertices (0 for the empty graph). *)
val max_degree : t -> int

(** All edges as [(u, v)] pairs with [u < v], lexicographically sorted. *)
val edges : t -> (int * int) list

(** [of_edges n es] builds a graph from an edge list. *)
val of_edges : int -> (int * int) list -> t

(** Fold over vertices in increasing order. *)
val fold_vertices : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [bfs_dist g src] is the array of BFS distances from [src];
    unreachable vertices get [max_int]. *)
val bfs_dist : t -> int -> int array

(** All-pairs BFS distances, [dist.(u).(v)]. *)
val all_pairs_dist : t -> int array array

val is_connected : t -> bool

val pp : Format.formatter -> t -> unit
