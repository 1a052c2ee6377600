(** OpenQASM 3-flavoured text export, so transformed circuits can be
    inspected or shipped to an external toolchain. Dynamic-circuit
    operations use the OpenQASM 3 [if (c) x q;] form. *)

val to_string : Circuit.t -> string
