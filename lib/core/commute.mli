(** QS-CaQR for commutable-gate circuits (paper §3.2.2), e.g. the QAOA
    phase layer: gates are the edges of a problem graph and may be freely
    reordered, so reuse planning works on the interaction graph directly.

    Qubits sharing a wire must be pairwise non-interacting, so the minimum
    qubit count is bounded by graph coloring. Reuse pairs impose
    "all gates of [src] before all gates of [dst]"; validity reduces to
    acyclicity of the pair digraph (pair [p1] precedes [p2] when [p1]'s
    dst equals or interacts with [p2]'s src). Candidate impact is
    evaluated by the paper's 3-step scheduler: per round, a
    maximum-weight matching of unblocked edges, gates touching
    reuse sources prioritized. *)

(** Minimum wires by graph coloring (paper's bound for commutable
    circuits). *)
val min_qubits : Galg.Graph.t -> int

(** A reuse plan: an ordered chain partition of the vertices. Chains are
    grown pair by pair; every chain's vertex set is independent in the
    problem graph and the pair digraph stays acyclic. *)
type plan

val make : Galg.Graph.t -> plan

val graph : plan -> Galg.Graph.t

(** Applied pairs, oldest first. *)
val pairs : plan -> Reuse.pair list

(** Wires in use = number of chain heads. *)
val usage : plan -> int

(** [chain plan head] is the hosted vertex sequence of a wire. *)
val chain : plan -> int -> int list

(** Chain heads, ascending. *)
val wires : plan -> int list

(** [valid_merge plan ~src ~dst]: [src] is a chain tail, [dst] a chain
    head of a different chain, the union stays independent, and the pair
    digraph stays acyclic. Independence is a bitset test against the
    plan's per-chain neighbourhood rows; since the plan's own pairs are
    acyclic, acyclicity is one reachability query from the new pair's
    successors back to its predecessors. *)
val valid_merge : plan -> src:int -> dst:int -> bool

(** [merge plan ~src ~dst] applies the pair (copy-on-write; the original
    plan is untouched). Raises [Invalid_argument] if invalid. *)
val merge : plan -> src:int -> dst:int -> plan

(** Number of scheduler rounds (parallel two-qubit-gate layers) the plan
    needs — the paper's pair-impact metric. [exact] (default when the
    graph has at most 32 vertices) uses blossom matching; otherwise a
    greedy matching. A vertex's gates wait until its chain predecessor is
    done: all its gates run and, recursively, its own predecessor done.
    Counts [commute.schedule.runs]. *)
val schedule_rounds : ?exact:bool -> plan -> int

(** The chain-load bound: the largest summed degree over the plan's
    chains. Chain occupants run one after another and a vertex joins at
    most one gate per round, so [schedule_rounds p >= rounds_lower_bound p]
    for either matching. Kept with the plan: a merge's bound is the
    larger of its parent's and the merged chain's summed degree. *)
val rounds_lower_bound : plan -> int

(** Emit the transformed single-layer QAOA circuit: H walls, scheduled
    [Rzz gamma] gates, [Rx (2 beta)] mixers, per-vertex measurement into
    clbit = vertex, and measure + conditional-X resets between chain
    occupants. Wires are renamed onto chain heads; clbits keep vertex
    identity so max-cut scoring is unchanged. *)
val emit : ?gamma:float -> ?beta:float -> plan -> Quantum.Circuit.t

(** [emit_shape plan] is [(depth, usage)] of [emit plan] — its
    {!Quantum.Circuit.depth} and {!Reuse.qubit_usage} — from a dry run of
    the emit schedule that builds no circuit. *)
val emit_shape : plan -> int * int

(** One greedy reduction step: merge the candidate with the best score
    ([`Exact] = fewest scheduler rounds among the first 48 valid
    candidates by combined wire load, earliest on ties, used for small
    graphs; [`Heuristic] = lowest combined wire load). [`Exact] skips the
    schedule of a candidate whose {!rounds_lower_bound} already reaches
    the incumbent's rounds (counted as [commute.schedule.pruned]) and
    cuts a schedule once its rounds plus the gates left on its busiest
    chain reach the incumbent's; such a candidate could not win, so the
    choice is unchanged. [None] when no valid merge exists. *)
val reduce_once : ?mode:[ `Exact | `Heuristic | `Auto ] -> plan -> plan option

(** [plan_with_budget g ~budget] builds a reuse plan that fits in
    [budget] wires by capacity-constrained list scheduling: qubits bind
    to a wire at their first gate and recycle it after their last, so
    chain orders are feasible by construction — incremental merging
    cannot reach deep reductions because it freezes chain orders too
    early. [None] when the greedy schedule deadlocks at this budget. *)
val plan_with_budget : Galg.Graph.t -> budget:int -> plan option

(** Full reduction trajectory from [n] wires down to the minimum
    reachable — the data behind Figs. 3 and 14. Each step's [circuit] is
    [emit plan] at the sweep's gamma, beta and its [pairs] are
    [pairs plan]. At every budget the budget planner's and the merge
    path's plans compete on {!emit_shape}; only a winner that lowers the
    usage is emitted, one per returned step (counted as
    [commute.emits]). Timed as [time.commute]. *)
val sweep :
  ?mode:[ `Exact | `Heuristic | `Auto ] ->
  ?gamma:float ->
  ?beta:float ->
  Galg.Graph.t ->
  Engine.step list
