(** End-to-end baseline compilation (the paper's "Qiskit optimization
    level 3" baseline): initial layout, SABRE-style routing, and the
    metrics the evaluation reports — qubit usage, depth, duration in dt,
    SWAP count, two-qubit gate count. *)

type stats = {
  qubits_used : int;
  depth : int;
  duration_dt : int;
  swaps : int;
  two_q : int;
  gate_count : int;
}

type result = { physical : Quantum.Circuit.t; stats : stats }

(** Device-aware ASAP duration of a physical circuit:
    {!Quantum.Circuit.schedule} under {!Hardware.Device.gate_duration}. *)
val physical_duration : Hardware.Device.t -> Quantum.Circuit.t -> int

(** Stats of an already-physical circuit. *)
val stats_of : Hardware.Device.t -> Quantum.Circuit.t -> stats

(** [run device circuit] lays out and routes a logical circuit. *)
val run : Hardware.Device.t -> Quantum.Circuit.t -> result

val pp_stats : Format.formatter -> stats -> unit
