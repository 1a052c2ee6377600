(** Gate-dependence DAG of a circuit (paper §3.2.1).

    Node [i] is gate [i] of the circuit; there is an edge [i -> j] when
    gate [j] must run after gate [i] because they share a qubit wire or a
    classical bit. Only direct (adjacent-on-wire) dependencies are
    stored, and gates are in execution order, so every edge points
    forward: one scan in gate order visits a node after all of its
    predecessors. Callers that need reachability derive it that way: the
    reuse engine's qubit reach rows, the verifier's Condition 2 walk. *)

(** Adjacency in compressed form, shared rather than copied: hot loops
    read it in place, and it must never be written. The predecessors of
    gate [i] are [pred_ids.(pred_start.(i))] up to
    [pred_ids.(pred_start.(i + 1) - 1)], likewise the successors. A
    gate's successors are listed latest first. *)
type t = {
  pred_start : int array;
  pred_ids : int array;
  succ_start : int array;
  succ_ids : int array;
}

val build : Circuit.t -> t

val num_nodes : t -> int
val in_degree : t -> int -> int

(** [iter_succs f t i] applies [f] to each successor of [i], latest
    first. *)
val iter_succs : (int -> unit) -> t -> int -> unit

(** [critical_nodes ~weight dag] marks nodes lying on some critical path
    — where node [i] costs [weight i] — as SR-CaQR only forces gates on
    the critical path (paper §3.3.1 Step 2). *)
val critical_nodes : weight:(int -> int) -> t -> bool array
