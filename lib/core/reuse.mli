(** Qubit-reuse conditions and the measure-and-reset circuit transform —
    the heart of CaQR (paper §3.1, §3.2.1).

    A reuse pair [(src -> dst)] means logical qubit [src] finishes all of
    its gates, is measured and conditionally reset, and then hosts every
    gate of logical qubit [dst]. Valid iff:

    - Condition 1: no gate couples [src] and [dst];
    - Condition 2: no gate on [src] transitively depends on a gate on
      [dst] (otherwise inserting the reset node closes a cycle). *)

type pair = { src : int; dst : int }

(** Everything the analyses need. Built from scratch by {!analyze} —
    paying the paper's §3.4 O(n^2) dependence-closure cost once — or
    derived from a previous analysis by {!apply_incremental}, which
    updates the closure in O(k^2) for k qubits instead of rebuilding it. *)
type analysis

val analyze : Quantum.Circuit.t -> analysis

(** The circuit an analysis describes. *)
val circuit : analysis -> Quantum.Circuit.t

(** Number of active qubits, read off the analysis. Equals
    [qubit_usage (circuit a)]. *)
val usage : analysis -> int

(** Active qubits (wires carrying at least one gate), ascending. *)
val active_qubits : analysis -> int list

(** [reaches a p q]: some gate on qubit [p] reaches (reflexively) some
    gate on qubit [q]. This is the qubit-level projection of the gate
    closure that Condition 2 consults; the causal-cone and GidNET
    engines read it directly — the causal cone of a measurement on [q]
    is exactly [{ p | reaches a p q }]. *)
val reaches : analysis -> int -> int -> bool

(** Condition 1 for a pair. *)
val condition1 : analysis -> pair -> bool

(** Condition 2 for a pair. *)
val condition2 : analysis -> pair -> bool

(** [valid analysis pair]: both qubits active, distinct, Conditions 1–2. *)
val valid : analysis -> pair -> bool

(** All valid pairs over active qubits. O(k^2) validity checks backed by
    the O(n^2) reachability closure, matching the paper's §3.4 analysis. *)
val valid_pairs : analysis -> pair list

(** [predict_depth analysis pair] is the circuit depth after applying
    [pair], computed exactly on the DAG (the spliced reset node only adds
    paths through itself, so the new critical path is
    [max original (max EF(src gates) + reset + max tail(dst gates))])
    without rebuilding the circuit. This is QS-CaQR's only candidate
    score; an analysis schedules in unit depth alone (durations in dt
    are measured on finished circuits, see {!Engine.make_step}). *)
val predict_depth : analysis -> pair -> int

(** Depth layer at which [pair.src]'s last gate completes — chains built
    by always retiring the earliest-finishing wire stay serial. *)
val src_finish_depth : analysis -> pair -> int

(** Depth layer at which [pair.dst]'s first gate completes. Serial chains
    pair the earliest finisher with the earliest starter. *)
val dst_start_depth : analysis -> pair -> int

(** [apply circuit pair] rebuilds the circuit with the reuse applied:
    [dst]'s gates are rewired onto [src] after a measure + conditional-X
    reset (a fresh scratch clbit is allocated unless [src] already ends in
    a measurement, in which case its existing clbit drives the reset —
    Fig. 2 (b)). The [dst] wire is left empty; callers compact when done.
    Raises [Invalid_argument] on an invalid pair. *)
val apply : Quantum.Circuit.t -> pair -> Quantum.Circuit.t

(** An emitted transform: the circuit of {!apply}, together with where
    each parent gate landed ([em_pos]: parent gate id -> emitted id) and
    where the reset splice landed — the spliced measure, when a fresh
    clbit was needed, and the conditional X. *)
type emission = {
  em_circuit : Quantum.Circuit.t;
  em_pos : int array;
  em_measure : int option;
  em_if_x : int;
}

(** [emit analysis pair] emits the reuse transform in Kahn topological
    order, always taking the least ready gate id; the reset splice runs
    after every [src] gate and before every [dst] gate. [apply c p] is
    [(emit (analyze c) p).em_circuit]. Raises [Invalid_argument] on an
    invalid pair. *)
val emit : analysis -> pair -> emission

(** [apply_incremental analysis pair] is the analysis of
    [apply (circuit analysis) pair], but derived incrementally: the reset
    node is the only new dependence, so the qubit-level closure update is

    [R'(a,b) = R(a,b) or (R(a,src) and R(dst,b))]

    followed by merging [dst]'s row and column into [src]'s — O(k^2)
    instead of the O(n^2) gate-closure rebuild. The linear-cost parts
    (DAG, unit-depth schedules, interaction graph) are recomputed
    exactly, so the result is observably identical to a fresh {!analyze}
    of the transformed circuit (property-tested in
    [test/test_incremental.ml]). Raises [Invalid_argument] on an invalid
    pair. *)
val apply_incremental : analysis -> pair -> analysis

(** [splice_is_local a]: the circuit has no barriers, so a reset splice
    adds dependences through src's and dst's gates only. It is then the
    fast path of {!apply_incremental}, and the set of applied reuse
    links fixes a descendant's DAG up to gate renumbering. Every
    analysis derived from a barrier-free one is barrier-free. *)
val splice_is_local : analysis -> bool

(** Number of active qubits (the "qubit usage" the paper reports). *)
val qubit_usage : Quantum.Circuit.t -> int
