(** Circuit execution on the state-vector backend: shot sampling and
    exact outcome distributions, both by one depth-first walk over the
    tree of measurement outcomes.

    A node of the tree is a state, a classical register and a gate
    index. Gates up to the next mid-circuit measurement or reset are
    applied in place; there the node branches on the outcome, saves its
    state, walks the 0 child, restores the state and walks the 1 child.
    Every outcome prefix is therefore simulated once per walk rather than
    once per shot or per leaf.

    Memory: besides the working state, the saved states of one walk hold
    at most 2^22 amplitudes together (64 MiB): one state per branching
    depth up to [2^22 / 2^n] depths on [n] qubits, and none past 22
    qubits. A node deeper than that is rebuilt for its second outcome by
    replaying the outcomes its path recorded, from the deepest saved
    ancestor or from |0...0>; each such rebuild bumps the ["sim.replays"]
    counter in {!Obs.Metrics}. Every walk adds its state-vector kernel
    calls to ["sim.amplitude_passes"].

    Wide circuits are first compacted onto their active wires so a
    27-qubit device circuit using 13 qubits simulates on 13. *)

(** [run ?jobs ~seed ~shots circuit] samples the classical register.

    Shots are drawn in fixed 256-shot batches whose RNG streams are pure
    functions of [(seed, batch index)] and fanned out over
    {!Exec.Pool}; the merged counts are byte-identical for every [jobs]
    value (default: {!Exec.Pool.default_jobs}). Within a batch each shot
    draws one uniform per measurement or reset, in gate order, shot
    after shot, before the walk; the walk then routes every group of
    shots to the outcome its draws select ([u < P(1)] reads 1). So the
    counts are those of simulating the shots one by one. The
    ["sim.shot"] fault site and a deadline checkpoint run once per shot,
    as its draws are taken; the walk polls the deadline again at every
    branching node (site ["sim.branch"]) and before every replay
    (["sim.replay"]), so a deadline that passes mid-batch stops the batch
    within one node's gates. *)
val run : ?jobs:int -> seed:int -> shots:int -> Quantum.Circuit.t -> Counts.t

(** [exact ~max_branches circuit] is [circuit]'s outcome distribution,
    indexed by classical register, walking both outcomes of every
    measurement and reset weighted by their Born probabilities. A branch
    whose probability falls to [1e-12] or below is dropped, and a
    trailing block of measurements (and barriers) is read off the final
    state in one pass rather than branched on. [Error] when more than
    [max_branches] nodes branch both ways (counting the root as one).
    The circuit is simulated as given, not compacted, and the walk polls
    no deadline. *)
val exact :
  max_branches:int -> Quantum.Circuit.t -> (float array, string) result

(** [only_final_measurements circuit] holds when [circuit] has no reset
    or conditional X and no gate acts on a qubit after that qubit is
    measured: its outcome distribution is the same for every shot, so
    {!distribution} computes it exactly instead of sampling. *)
val only_final_measurements : Quantum.Circuit.t -> bool

(** Exact outcome distribution for circuits whose only dynamic operations
    are final measurements (read off the final state in one pass);
    falls back to 4096-shot sampling otherwise. *)
val distribution : seed:int -> Quantum.Circuit.t -> Counts.t
