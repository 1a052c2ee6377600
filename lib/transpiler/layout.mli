(** Initial placement of logical qubits onto device qubits.

    Heuristic in the spirit of Qiskit's dense/SABRE layouts: logical qubits
    are placed in decreasing interaction-degree order; each goes to the
    free physical qubit minimizing distance to its already-placed
    interaction neighbors, with device quality (connectivity, readout and
    CNOT fidelity) breaking ties. *)

type t = {
  l2p : int array;  (** logical -> physical *)
  p2l : int array;  (** physical -> logical, [-1] when free *)
}

(** [initial device circuit] places every logical wire of [circuit].
    Raises [Invalid_argument] if the device is too small. *)
val initial : Hardware.Device.t -> Quantum.Circuit.t -> t

(** The placement's working arrays and its result, kept across calls. *)
type scratch

(** Empty buffers. *)
val scratch : unit -> scratch

(** [initial_in s device circuit ~wire ~width] places the [width]
    logical qubits [wire] names: wire [q] of [circuit] is logical qubit
    [wire.(q)], distinct for the wires some gate touches. [initial] is
    the identity [wire] on fresh scratch. The result's arrays are [s]'s
    (indices past [width] and the device's size are not part of it)
    until the next [initial_in s]. *)
val initial_in :
  scratch -> Hardware.Device.t -> Quantum.Circuit.t -> wire:int array -> width:int -> t

(** Identity layout on the first [n] physical qubits. *)
val trivial : Hardware.Device.t -> int -> t

val copy : t -> t

(** Swap the logical occupants of two physical qubits (either may be free). *)
val apply_swap : t -> int -> int -> unit
