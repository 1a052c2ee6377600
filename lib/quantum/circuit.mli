(** Quantum circuits: an ordered gate list over [num_qubits] wires and
    [num_clbits] classical bits.

    Circuits are immutable values; [Builder] offers an imperative
    construction surface. Gate ids are the position at construction time and
    are re-assigned by transformations, so they are always dense. *)

type t = private {
  num_qubits : int;
  num_clbits : int;
  gates : Gate.t array;
}

val empty : num_qubits:int -> num_clbits:int -> t

(** [of_kinds ~num_qubits ~num_clbits kinds] numbers the gates 0.. in
    order. Raises [Invalid_argument] if an operand is out of range. *)
val of_kinds : num_qubits:int -> num_clbits:int -> Gate.kind list -> t

(** Array-based variant of {!of_kinds} for callers that accumulate
    kinds into a buffer (e.g. the streaming QASM importer): same
    numbering and validation without an intermediate list. The input
    array is not retained. *)
val of_kind_array : num_qubits:int -> num_clbits:int -> Gate.kind array -> t

(** [of_kind_prefix ~num_qubits ~num_clbits kinds len] is {!of_kind_array}
    of the first [len] kinds, for callers whose buffer is longer than
    the circuit. The buffer is not retained. *)
val of_kind_prefix :
  num_qubits:int -> num_clbits:int -> Gate.kind array -> int -> t

val gate_count : t -> int

(** Number of two-qubit unitaries (Swap counts as one gate here). *)
val two_q_count : t -> int

(** SWAP gates present. *)
val swap_count : t -> int

(** Number of mid-circuit measurements, i.e. measurements followed by more
    operations on the same qubit. *)
val mid_circuit_measurements : t -> int

(** Qubits that carry at least one gate. *)
val active_qubits : t -> int list

(** [schedule ?on_gate dur c] is the one ASAP wire-front scheduler every
    depth, duration and timing view is an instance of. Gates are placed
    in order; a gate starts when all its qubit wires and classical bits
    are free (the latest finish of the earlier gates on them, 0 if none)
    and lasts [dur kind]. A barrier gets a zero-length slot at the front
    of its wires and moves no front; [dur] is never called on it.
    [on_gate i start finish] is called for every gate, barriers
    included, in index order. Returns the makespan (latest finish; 0 for
    an empty circuit). Allocates nothing but the two front arrays. *)
val schedule :
  ?on_gate:(int -> int -> int -> unit) -> (Gate.kind -> int) -> t -> int

(** Circuit depth: {!schedule} with every non-barrier gate one time step
    on each of its wires (classical bits are wires too, so an [If_x]
    serializes after its [Measure]). *)
val depth : t -> int

(** ASAP-scheduled total duration in dt under a duration model:
    {!schedule} with [Duration.of_kind model]. *)
val duration : Duration.t -> t -> int

(** Gate-dependence-respecting qubit interaction graph: vertex per qubit,
    edge when some two-qubit gate couples them (paper Fig. 5). *)
val interaction_graph : t -> Galg.Graph.t

(** [map_qubits ~num_qubits f c] renames qubit wires. *)
val map_qubits : num_qubits:int -> (int -> int) -> t -> t

(** Remove wires that carry no gate, compacting indices downward. Returns
    the compacted circuit and the old-to-new qubit index map ([-1] for
    dropped wires). *)
val compact_qubits : t -> t * int array

(** [compaction c remap] writes [compact_qubits c]'s index map into
    [remap.(0 .. num_qubits - 1)] and returns the compacted width. *)
val compaction : t -> int array -> int

(** Append measurement of every active qubit [q] into classical bit [q]. *)
val measure_all : t -> t

(** Canonical content digest (hex): a hash of the widths and the ordered
    gate kinds — the same information the canonical QASM-3 emission
    carries — with rotation angles taken bit-exact. Equal iff the
    circuits have equal [num_qubits], [num_clbits] and gate-kind
    sequences; invariant under the gate list's physical representation
    (gate ids, array identity, builder vs. [of_kinds] construction,
    QASM-3 round-trip). The compilation service uses it as the
    circuit-identity third of its cache key. *)
val digest : t -> string

(** Gate-by-gate construction into a growable kind array. *)
module Builder : sig
  type circuit := t
  type t

  val create : num_qubits:int -> num_clbits:int -> t

  (** Appends a gate. Raises [Invalid_argument], adding nothing, if an
      operand is out of range. *)
  val add : t -> Gate.kind -> unit
  val h : t -> int -> unit
  val x : t -> int -> unit
  val z : t -> int -> unit
  val rx : t -> float -> int -> unit
  val rz : t -> float -> int -> unit
  val cx : t -> int -> int -> unit
  val cz : t -> int -> int -> unit
  val rzz : t -> float -> int -> int -> unit
  val swap : t -> int -> int -> unit
  val measure : t -> int -> int -> unit
  val reset : t -> int -> unit
  val if_x : t -> int -> int -> unit
  val barrier : t -> int list -> unit

  (** The gates added so far, numbered 0.. in order; equal to
      {!of_kinds} of the added kinds. Each gate was checked by [add], so
      none is checked again. *)
  val build : t -> circuit
end
