(** Probabilistic equivalence for circuits too large to enumerate.

    Each probe runs both circuits from a seeded simulator and compares
    the outcome statistics on the shared clbits: per-bit marginals and
    all pairwise XOR correlations (which catch rewired-but-balanced bits
    that marginals alone cannot). A side whose only dynamic operations
    are final measurements is evaluated exactly (one state-vector pass);
    a dynamic side is sampled shot by shot.

    Probes beyond the first optionally perturb the input: qubits listed
    in [product_inputs] receive an identical random product-state prefix
    in both circuits. Callers must only list qubits whose wire hosts the
    same logical qubit first on both sides — for a reuse transform, the
    qubits that never appear as a pair's [dst] (a reused qubit must start
    in |0>, so probing it would test a statement the transform never
    claimed).

    A sampled side takes 512 shots per probe, and every statistic must
    agree to within [5 / sqrt 512] (about 0.22).

    Sound but incomplete: [Inequivalent] means a statistic diverged by
    more than the tolerance, [Equivalent] means every probe agreed. *)

type config = {
  probes : int;  (** number of probe rounds (default 4) *)
  product_inputs : int list;
      (** qubits eligible for input perturbation (default none) *)
}

val default : config

(** Sides wider than this after compaction are [Inconclusive] (22). *)
val max_qubits : int

(** [check ?config ~seed ~original ~transformed ()]. The same [seed]
    always yields the same verdict. *)
val check :
  ?config:config ->
  seed:int ->
  original:Quantum.Circuit.t ->
  transformed:Quantum.Circuit.t ->
  unit ->
  Verdict.t
