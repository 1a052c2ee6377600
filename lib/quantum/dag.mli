(** Gate-dependence DAG of a circuit (paper §3.2.1).

    Node [i] is gate [i] of the circuit; there is an edge [i -> j] when
    gate [j] must run after gate [i] because they share a qubit wire or a
    classical bit. Only direct (adjacent-on-wire) dependencies are stored;
    transitive closure is available via {!Reachability}. *)

type t

val build : Circuit.t -> t

(** Adjacency in compressed form: the predecessors of gate [i] are
    [pred_ids.(pred_start.(i))] up to [pred_ids.(pred_start.(i + 1) - 1)],
    likewise the successors, each in the order of {!preds} and
    {!succs}. *)
type adjacency = {
  pred_start : int array;
  pred_ids : int array;
  succ_start : int array;
  succ_ids : int array;
}

(** [of_parts circuit adj ~on_qubit] assembles a DAG from precomputed
    adjacency, for callers that can derive it cheaper than {!build}
    (e.g. by relabelling a parent DAG). The arrays are kept, not copied.
    They must describe exactly what [build circuit] would produce, up to
    neighbour order. Shape invariants are checked — offset arrays of one
    more than the gate count spanning their id arrays, ids in range and
    listed once per gate, edges pointing forward in emission order with
    predecessors and successors mirrored, and [on_qubit] listing
    non-barrier gates of that wire in execution order — and a violation
    raises [Invalid_argument]; semantic agreement with [build] is the
    caller's burden. [~check:false] skips the per-edge checks (the array
    length checks always run) — reserve it for hot callers whose output
    is cross-validated elsewhere. *)
val of_parts :
  ?check:bool -> Circuit.t -> adjacency -> on_qubit:int list array -> t

val num_nodes : t -> int

(** The DAG's adjacency, shared rather than copied: hot loops read it in
    place, and it must never be written. *)
val adjacency : t -> adjacency

(** Neighbour lists, built on each call. *)
val preds : t -> int -> int list
val succs : t -> int -> int list
val in_degree : t -> int -> int

(** [iter_succs f t i] applies [f] to each successor of [i], in the
    order of [succs t i]. *)
val iter_succs : (int -> unit) -> t -> int -> unit

(** A topological order of the gate ids (gates are stored in execution
    order, so this is [0 .. n-1], kept explicit for clarity). *)
val topo_order : t -> int list

(** Gate ids with in-degree 0. *)
val frontier : t -> int list

(** [longest_path ~weight dag] is the critical-path length where node [i]
    costs [weight i]. With [weight = fun _ -> 1] this equals circuit depth
    over non-barrier gates. *)
val longest_path : weight:(int -> int) -> t -> int

(** [critical_nodes ~weight dag] marks nodes lying on some critical path —
    SR-CaQR only forces gates on the critical path (paper §3.3.1 Step 2). *)
val critical_nodes : weight:(int -> int) -> t -> bool array

(** Gate ids (in execution order) acting on a given qubit. *)
val gates_on_qubit : t -> int -> int list
