(** ASCII circuit drawing for small circuits — used by the examples to
    render the paper's Fig. 1 walkthrough. One row per qubit wire, one
    column per scheduling layer. *)

val to_string : Circuit.t -> string
