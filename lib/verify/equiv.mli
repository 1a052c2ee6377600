(** Exact semantic equivalence for small circuits.

    Both circuits are interpreted as channels from |0...0> to a classical
    outcome distribution: the checker walks the gate list, branching on
    every mid-circuit measurement and reset (weighting each branch by its
    Born probability and pruning zero-probability branches), so dynamic
    circuits get their exact distribution instead of a sampled one. A
    trailing block of measurements is read off the final state vector in
    one pass, which keeps e.g. a measured QAOA layer from exploding into
    2^n branches.

    Two circuits are equivalent when their distributions agree on the
    shared classical bits (the transform may append scratch clbits for
    conditional resets; those are marginalized out). This is exactly the
    §3.1 claim being validated: reuse preserves the program's outcome
    distribution, including the qubit relabeling induced by the pairs —
    relabeling never shows up in clbit space.

    The budgets are fixed: at most 12 qubits after compaction, 20 clbits
    and 16384 measurement branches per side. The distributions must agree
    to an L1 distance of 1e-6 (float accumulation slack). *)

(** [check ~original ~transformed ()] compares exact distributions on
    the shared clbits. [Inconclusive] when either side exceeds the
    budgets, or when the L1 distance is not finite (a NaN or infinite
    probability, e.g. from a NaN rotation angle). *)
val check :
  original:Quantum.Circuit.t ->
  transformed:Quantum.Circuit.t ->
  unit ->
  Verdict.t
