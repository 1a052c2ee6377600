(** Static translation validators — no simulation, so they run on any
    size and catch the cheap-to-catch bugs first (paper §3.1 conditions,
    device legality, classical-register accounting).

    Everything here re-derives its facts from the circuits: the pair
    checker builds each step's gate DAG itself, as flat arrays, and
    Condition 2 is one forward walk in gate order that marks every
    descendant of [dst]'s gates, O(n + edges) per pair. It deliberately
    does not call into the compiler's own [Reuse] analysis, so a bug in
    the compiler's condition checking cannot hide itself. *)

(** A claimed reuse pair, in the §3.1 sense: qubit [src] finishes, is
    measured and reset, and then hosts every gate of [dst]. Mirrors the
    compiler's pair type without depending on it. *)
type pair = { src : int; dst : int }

(** Classical well-formedness of a single circuit: every operand in
    range, two-qubit gates on distinct wires, and every conditional X
    reads a clbit that an earlier measurement wrote — a reuse reset whose
    measure/init order was swapped is caught here. *)
val check_wellformed : Quantum.Circuit.t -> Verdict.t

(** [check_pairs ~original pairs] validates a claimed reuse-pair sequence
    against the untransformed circuit: each pair, in application order,
    must satisfy Condition 1 (no gate couples [src] and [dst]) and
    Condition 2 (no gate on [src] transitively depends on a gate on
    [dst]) on the circuit with all earlier pairs applied. The re-derived
    transform used for stepping is local to this module. *)
val check_pairs : original:Quantum.Circuit.t -> pair list -> Verdict.t

(** [check_commutable_pairs ~graph pairs] validates a reuse plan for a
    commutable-gate (QAOA) instance: chains built by the pairs must be
    independent sets of the problem graph, each qubit is reused at most
    once in each direction, and the pair precedence digraph ([p1] before
    [p2] when [p1.dst] equals or interacts with [p2.src]) is acyclic. *)
val check_commutable_pairs : graph:Galg.Graph.t -> pair list -> Verdict.t

(** Every two-qubit unitary of a physical circuit must lie on a coupled
    edge of the device, and every wire must exist on the device. *)
val check_coupling : Hardware.Device.t -> Quantum.Circuit.t -> Verdict.t

(** Classical-register accounting between the logical circuit and its
    compiled form: the physical circuit keeps at least the logical
    clbits, and writes each program clbit exactly as often as the logical
    circuit does (reuse adds scratch clbits, never extra writes to
    program clbits). *)
val check_accounting :
  logical:Quantum.Circuit.t -> physical:Quantum.Circuit.t -> Verdict.t

(** Well-formedness + coupling + accounting for one compiled artifact —
    the everything-static bundle the bench harness runs on every compiled
    experiment circuit. *)
val check_artifact :
  Hardware.Device.t ->
  logical:Quantum.Circuit.t ->
  physical:Quantum.Circuit.t ->
  Verdict.t
