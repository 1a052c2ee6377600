(** Cone-CaQR: causal-cone qubit reuse, after DeCross et al.
    (arxiv 2210.08039).

    A fundamentally different algorithm from the QS-CaQR pair search:
    instead of retiring one qubit at a time by best predicted depth, it
    orders the program's terminal measurements by the size of their
    causal cones (the set of qubits whose gates can influence the
    measured qubit) and walks that order, lazily allocating a wire for
    each cone member the first time it is needed and recycling the
    measured-then-reset wire as soon as its measurement's cone is
    complete. Small cones first means wires retire early and the free
    pool stays warm — on many circuits this reaches the true minimum
    width directly.

    The engine speaks the same IR contract as {!Qs_caqr}: its
    {!Engine.artifact} is a logical circuit derived from the input by a
    sequence of {!Reuse.pair} applications (measure + conditional-X
    splices), so
    [lib/verify]'s structural checker and the simulation-TVD oracle
    apply unchanged. *)

(** [run circuit] — deterministic: the result is a pure function of the
    input circuit (ties broken by qubit id). Hot loops poll
    {!Guard.Budget} at stage ["core.cone"]; a budget trip is {e not} an
    error — the walk commits pair by pair, so the pairs applied before
    the trip are returned as an anytime partial result (quality
    {!Quality.Anytime}, metric ["cone.anytime.returns"]). *)
val run : Quantum.Circuit.t -> Engine.artifact
