(** ASAP gate scheduling: start/finish times for every gate under the
    default duration model, plus an ASCII timeline for inspection.

    The entries are recorded from {!Circuit.schedule}, the one wire-front
    scheduler behind every depth and duration number: a gate starts when
    all its qubit wires and classical bits are free, so [makespan]
    always equals [Circuit.duration]. *)

type entry = {
  gate : Gate.t;
  start_dt : int;
  finish_dt : int;
}

type t = private { entries : entry array; makespan : int }

(** [asap circuit] under {!Duration.default}. Barriers get zero-length
    entries at their wires' front. *)
val asap : Circuit.t -> t

(** Per-qubit busy time in dt (sum of gate durations on that wire). *)
val busy : t -> num_qubits:int -> int array

(** Fraction of the makespan each wire spends idle, [0, 1]. *)
val idle_fraction : t -> num_qubits:int -> float array

(** ASCII Gantt chart, one row per qubit, [width] characters across the
    makespan (default 64). Gate cells are marked with the gate's initial,
    idle time with '.'. *)
val to_string : ?width:int -> num_qubits:int -> t -> string
