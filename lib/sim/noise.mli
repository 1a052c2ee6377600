(** Monte-Carlo noisy execution standing in for the paper's IBM Mumbai runs
    (Table 3, Figs 15–16).

    Error channels, all driven by the device calibration:
    - depolarizing Pauli noise after every 1q/2q gate (per-link CNOT error;
      SWAP counts as three CNOTs),
    - readout bit-flips at measurement,
    - Pauli-twirled thermal relaxation (T1/T2) on idle qubits. Each
      circuit is scheduled once by {!Quantum.Circuit.schedule} under
      {!Hardware.Device.gate_duration} — the scheduler and duration rule
      behind every reported physical duration — and every shot relaxes a
      wire over the gap between its last gate's finish and its next
      gate's start. This is the mechanism that makes longer circuits and
      more SWAPs lose fidelity, which is exactly the tradeoff CaQR
      exploits. *)

(** [run ~device ~seed ~shots circuit] executes the physical circuit
    (wires = device qubits) with noise. *)
val run :
  device:Hardware.Device.t -> seed:int -> shots:int -> Quantum.Circuit.t -> Counts.t

(** TVD between the noisy distribution and the ideal (noise-free) one. *)
val tvd_vs_ideal :
  device:Hardware.Device.t -> seed:int -> shots:int -> Quantum.Circuit.t -> float
