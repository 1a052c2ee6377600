(** GidNET-CaQR: graph-based identification of reuse networks, after
    arxiv 2410.08817.

    Where QS-CaQR commits one reuse pair at a time by local score,
    GidNET looks at the whole candidate-pair graph at once: vertices are
    active qubits, an edge [p -> q] means the pair [(src = p, dst = q)]
    satisfies CaQR's Conditions 1-2, and a *reuse chain*
    [q1 -> q2 -> ... -> qm] folds all of [q2..qm] onto [q1]'s wire —
    saving [m - 1] qubits in one decision. The engine repeatedly
    extracts the longest chain it can find (greedy longest-path over the
    candidate graph, deterministic tie-breaks), commits it link by link
    with per-link revalidation against the incrementally updated
    analysis, and rebuilds the candidate graph, until no candidate pair
    remains.

    Same IR contract as {!Qs_caqr}/{!Cone_caqr}: the output is the input
    circuit transformed by a sequence of {!Reuse.pair} splices, so
    [lib/verify] and the fuzz oracles apply unchanged. *)

(** [run circuit] — deterministic: a pure function of the input circuit.
    Hot loops poll {!Guard.Budget} at stage ["core.gidnet"]; a budget
    trip between rounds returns the chains committed so far as an
    anytime partial result (quality {!Quality.Anytime}, metric
    ["gidnet.anytime.returns"]) rather than raising. *)
val run : Quantum.Circuit.t -> Engine.artifact
