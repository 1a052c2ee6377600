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

(** [run device circuit] lays out and routes a logical circuit.

    Memory: the peephole, layout and router work on buffers kept per
    domain ([Domain.DLS]) and reused by the next route on that domain;
    only the returned circuit and stats are allocated for the caller,
    and they share nothing with the buffers. A buffer grows to the
    largest circuit the domain has routed but is kept only up to
    {!Quantum.Scratch.retain_max} elements (16,384 words, 128 KiB): a
    larger circuit routes on buffers dropped on return. The 37 kept
    buffers therefore hold at most 37 × 128 KiB = 4.6 MiB per domain,
    and a few KiB after Table-1 sized circuits. The two gate-kind
    buffers (the peephole's input kinds and the router's output kinds)
    are cleared before a route returns, so a finished route leaves no
    gate kind reachable through them. A route that raised (a tripped
    budget, an injected fault) skips that clearing: up to 2 × 16,384
    of its kinds, with whatever angles and barrier lists they hold,
    stay reachable until later routes on that domain overwrite them (a
    route clears as many kinds as it wrote). Every
    route refills what it reads, so a route that raised leaves nothing
    the next one sees. *)
val run : Hardware.Device.t -> Quantum.Circuit.t -> result

(** [run_compact device circuit] is
    [run device (fst (Quantum.Circuit.compact_qubits circuit))] without
    building the compacted circuit: the layout places only the wires a
    gate touches. *)
val run_compact : Hardware.Device.t -> Quantum.Circuit.t -> result

val pp_stats : Format.formatter -> stats -> unit
