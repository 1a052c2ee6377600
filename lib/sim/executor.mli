(** Shot-based circuit execution on the state-vector backend.

    Circuits with dynamic operations (mid-circuit measurement, reset,
    conditional X) are re-simulated per shot because measurement collapse
    is stochastic — exactly the semantics the hardware gives the paper's
    transformed circuits. Wide circuits are first compacted onto their
    active wires so a 27-qubit device circuit using 13 qubits simulates on
    13. *)

(** [run ?jobs ~seed ~shots circuit] samples the classical register.

    Shots are drawn in fixed 256-shot batches whose RNG streams are pure
    functions of [(seed, batch index)] and fanned out over
    {!Exec.Pool}; the merged counts are byte-identical for every [jobs]
    value (default: {!Exec.Pool.default_jobs}). *)
val run : ?jobs:int -> seed:int -> shots:int -> Quantum.Circuit.t -> Counts.t

(** [only_final_measurements circuit] holds when [circuit] has no reset
    or conditional X and no gate acts on a qubit after that qubit is
    measured: its outcome distribution is the same for every shot, so
    {!distribution} computes it exactly instead of sampling. *)
val only_final_measurements : Quantum.Circuit.t -> bool

(** [read_off st ~creg wiring f] reads a trailing block of measurements
    off [st] without collapsing it. [wiring] lists the block's
    [(qubit, clbit)] pairs in execution order. For every basis state
    whose probability [p] exceeds [1e-12], [f outcome p] is called, where
    [outcome] is [creg] with each wired clbit set to its qubit's bit in
    that basis state; a later measurement overwrites an earlier one on
    the same clbit. *)
val read_off :
  State.t -> creg:int -> (int * int) list -> (int -> float -> unit) -> unit

(** Exact outcome distribution for circuits whose only dynamic operations
    are final measurements (read off the final state by {!read_off});
    falls back to 4096-shot sampling otherwise. *)
val distribution : seed:int -> Quantum.Circuit.t -> Counts.t
