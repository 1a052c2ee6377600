(** Quantum gates, including the dynamic-circuit operations the paper builds
    on: mid-circuit measurement, reset, and the classically-controlled X
    that implements CaQR's cheap conditional reset (paper Fig. 2). *)

(** Single-qubit operations. *)
type one_q =
  | H
  | X
  | Y
  | Z
  | S
  | Sdg
  | T
  | Tdg
  | Sx
  | Rx of float
  | Ry of float
  | Rz of float
  | Phase of float

type kind =
  | One_q of one_q * int  (** gate, qubit *)
  | Cx of int * int  (** control, target *)
  | Cz of int * int
  | Rzz of float * int * int
      (** exp(-i theta/2 Z.Z): the commuting QAOA phase-separation gate *)
  | Swap of int * int
  | Measure of int * int  (** qubit, classical bit *)
  | Reset of int  (** built-in reset (contains an implicit measurement) *)
  | If_x of int * int
      (** classical bit, qubit: X applied iff the bit read 1 — CaQR's
          optimized conditional reset *)
  | Barrier of int list

type t = { id : int; kind : kind }

(** Qubits the gate acts on, in occurrence order. *)
val qubits : kind -> int list

(** Classical bits the gate reads or writes. *)
val clbits : kind -> int list

(** True for two-qubit unitaries (Cx, Cz, Rzz, Swap). *)
val is_two_q : kind -> bool

(** True for Measure, Reset and If_x — the dynamic-circuit operations. *)
val is_dynamic : kind -> bool

val is_barrier : kind -> bool

(** [map_qubits f kind] renames qubit operands. A kind none of whose
    operands moves is returned itself, unallocated (a barrier excepted:
    its renamed wire list is always rebuilt, sorted and deduplicated). *)
val map_qubits : (int -> int) -> kind -> kind

val pp : Format.formatter -> t -> unit
