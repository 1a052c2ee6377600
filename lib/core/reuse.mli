(** Qubit-reuse conditions and the measure-and-reset circuit transform —
    the heart of CaQR (paper §3.1, §3.2.1).

    A reuse pair [(src -> dst)] means logical qubit [src] finishes all of
    its gates, is measured and conditionally reset, and then hosts every
    gate of logical qubit [dst]. Valid iff:

    - Condition 1: no gate couples [src] and [dst];
    - Condition 2: no gate on [src] transitively depends on a gate on
      [dst] (otherwise inserting the reset node closes a cycle). *)

type pair = { src : int; dst : int }

(** The reuse search's cursor: a root circuit plus the reuse links
    applied to it since, updated in place. {!analyze} builds a cursor at
    the root: the root's flat tables (gate kinds, DAG adjacency, each
    qubit's first and last gate, which final measurements may drive a
    reset), which every node the cursor visits shares read-only, and the
    qubit-level reach relation as bitset rows. Those rows come from one
    reverse sweep over the DAG — a gate's row is its own wires OR'd with
    its successors' rows, a wire's row the OR of its gates' rows — in
    O(n·k/63) word operations for n gates on k qubits, where the paper's
    §3.4 gate-level closure costs O(n^2). {!link} moves the cursor to a
    child by updating only what a link changes — the wire chains, the
    unit-depth schedules and the reach rows — and {!unlink} moves it
    back. Every reader below reads the cursor's current node. A cursor
    belongs to one walk; nothing may keep it as a snapshot of a node,
    since the next move changes what it reads. *)
type analysis

val analyze : Quantum.Circuit.t -> analysis

(** The circuit of the cursor's current node. At the root it is the
    input; below, it is built on the first read at that node, by
    replaying the emission rule of {!emit} link by link from the root
    (bumping ["reuse.materialized"]), and kept until the cursor moves.
    The result equals iterated {!apply} along the same pairs. *)
val circuit : analysis -> Quantum.Circuit.t

(** [replay a pairs] is the circuit of [a]'s root with [pairs] applied in
    order, wherever the cursor stands: iterated {!apply}, built on a
    barrier-free circuit from the root's tables by the rule of {!circuit}
    ([pairs = []] is the root's circuit itself). A search keeps only the
    pair path of a node it may return, and builds its circuit this
    way. *)
val replay : analysis -> pair list -> Quantum.Circuit.t

(** Number of active qubits, read off the analysis. Equals
    [qubit_usage (circuit a)]. *)
val usage : analysis -> int

(** Active qubits (wires carrying at least one gate), ascending. *)
val active_qubits : analysis -> int list

(** [reaches a p q]: some gate on qubit [p] reaches (reflexively) some
    gate on qubit [q], along wire, barrier or classical-bit edges. This
    qubit-level relation is all Condition 2 consults; the causal-cone
    engine reads it directly — the causal cone of a measurement on [q]
    is exactly [{ p | reaches a p q }]. *)
val reaches : analysis -> int -> int -> bool

(** Condition 1 for a pair: no gate of the root couples a qubit of
    [src]'s chain with one of [dst]'s (one O(n) scan of the root's gate
    tables). *)
val condition1 : analysis -> pair -> bool

(** Condition 2 for a pair. *)
val condition2 : analysis -> pair -> bool

(** [valid analysis pair]: both qubits active, distinct, Conditions 1–2.
    Condition 2 implies Condition 1 (a gate coupling the two wires is a
    gate on [dst] that reaches itself on [src]), so only Condition 2 is
    tested. *)
val valid : analysis -> pair -> bool

(** [valid_srcs a dst out] writes into [out.(0)], [out.(1)], ... every
    [src] with [valid a {src; dst}], ascending, and returns how many: row
    [dst] of the candidate matrix, read off reach row [dst] in O(k) with
    no closure, record or list. [out] needs room for [k] entries. *)
val valid_srcs : analysis -> int -> int array -> int

(** All valid pairs over active qubits: O(k^2) bit tests on the reach
    rows, which {!analyze} derives in O(n·k/63) rather than the paper's
    §3.4 O(n^2) closure. *)
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

(** [emit analysis pair] is the circuit of [analysis] with [pair]
    applied, as {!apply} builds it: Kahn's topological order with
    least-id priority, the reset splice after every [src] gate and before
    every [dst] gate. Parent ids are topological and the splice's id is
    above every gate, so that order is: every gate not descending from
    [dst]'s first gate, in parent order; the splice; the descendants, in
    parent order. The same rule builds {!circuit}. [apply c p] is
    [emit (analyze c) p]. Raises [Invalid_argument] on an invalid
    pair. *)
val emit : analysis -> pair -> Quantum.Circuit.t

(** [link a pair] moves the cursor to the child that applies [pair],
    the node of [apply (circuit a) pair], without building a circuit. On
    a barrier-free circuit the reset splice [last src gate -> (measure
    ->) conditional X -> first dst gate] is the only new dependence, so
    the update is in place:
    - the reach rows update in O(k^2 / 63) word operations,
      [R'(a,b) = R(a,b) or (R(a,src) and R(dst,b))], then merge [dst]'s
      row and column into [src]'s;
    - earliest finishes rise only below the splice and longest tails
      only above it, and each side is relaxed outward from the splice
      over just the gates whose value changes, each raised cell
      recorded on an undo trail;
    - depth rises along every wire, so a wire's finish, start and tail
      read off its first and last gate in O(1).
    The parent's reach rows and critical path are saved per depth in
    buffers that grow to the deepest link, so a walk allocates nothing
    per link once its buffers are sized. Every reader then answers as a
    fresh {!analyze} of the transformed circuit would (property-tested in
    [test/test_incremental.ml]). With barriers the child is that fresh
    analysis, pushed over its parent. Raises [Invalid_argument] on an
    invalid pair. *)
val link : analysis -> pair -> unit

(** [commit a pair] is {!link} for a walk that never backtracks past
    it: the cursor moves to the same child, but saves no reach rows or
    critical path and trails no schedule cell, so a commit costs only
    the update itself. {!unlink} may still undo later links, but raises
    [Invalid_argument] instead of undoing a commit. *)
val commit : analysis -> pair -> unit

(** [unlink a] moves the cursor back to the parent of its node,
    restoring every field exactly as it was before the matching {!link}.
    Raises [Invalid_argument] at the root and when the latest move was
    a {!commit}. *)
val unlink : analysis -> unit

(** [flush a] adds the in-place links [a] made since the last flush to
    the ["reuse.analyze.incremental"] counter, and the time they took to
    the ["time.analyze"] timer: a walk publishes its count once instead
    of taking the registry's lock per link. (An {!unlink} is
    backtracking; its time is the caller's.) *)
val flush : analysis -> unit

(** [splice_is_local a]: the circuit has no barriers, so a reset splice
    adds dependences through src's and dst's gates only. {!link} then
    works in place, and the set of applied reuse links fixes a node's
    DAG up to gate renumbering. Every node below a barrier-free root is
    barrier-free. *)
val splice_is_local : analysis -> bool

(** The cursor's current node as named copies of its state — the wire
    chains ["prev"], ["next"], ["tail"], the schedules ["ef"], ["tl"],
    ["cp_depth"], the reach rows ["qreach"] and ["usage"] — for tests
    that compare a walk field by field. *)
val fields : analysis -> (string * int array) list

(** Candidate orders for {!push_ranked}: [By_depth] by
    {!predict_depth}; [By_chain] by {!src_finish_depth}, then
    {!dst_start_depth}. *)
type rank = By_depth | By_chain

(** A growable int stack: [items.(0)] to [items.(len - 1)]. A growing
    push replaces [items], so a reader indexes [items] afresh. *)
type stack = { mutable items : int array; mutable len : int }

val stack : unit -> stack

(** [push_ranked a rank st] pushes every valid pair of the cursor's node,
    encoded as [src * num_qubits + dst], onto [st], in ascending key
    order with ties in {!valid_pairs} order, and returns how many it
    pushed — a DFS frame's candidates as one slice of an int stack the
    walk owns, with no tuple, record or array per node. *)
val push_ranked : analysis -> rank -> stack -> int

(** Number of active qubits (the "qubit usage" the paper reports). *)
val qubit_usage : Quantum.Circuit.t -> int
