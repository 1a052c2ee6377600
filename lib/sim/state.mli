(** Dense state-vector over [n] qubits (little-endian: qubit [q] is bit [q]
    of the basis index). Supports the dynamic-circuit primitives the paper
    relies on: projective mid-circuit measurement with collapse, reset, and
    X conditioned on a classical bit. Mutable: gates update in place. *)

type t

(** [make n] is |0...0> on [n] qubits, or a typed error when [n] is
    negative or exceeds the configured cap ({!max_qubits}, default 24).
    The check runs before any allocation, so an over-wide request costs
    nothing — a structured refusal instead of an OOM. *)
val make : int -> (t, Guard.Error.t) result

(** Raising wrapper over {!make}: raises [Invalid_argument] on an
    unsupported width. *)
val init : int -> t

(** Current simulator width cap (qubits). *)
val max_qubits : unit -> int

(** [set_max_qubits n] sets the cap, clamped to [\[1, 26\]] — the hard
    ceiling past which the dense vector no longer fits sane memory. *)
val set_max_qubits : int -> unit

val num_qubits : t -> int

(** Squared norm (should stay 1 up to rounding). *)
val norm2 : t -> float


(** Probability of measuring basis state [i]. *)
val probability : t -> int -> float

(** Full probability vector, length [2^n]. *)
val probabilities : t -> float array

val apply_one_q : t -> Quantum.Gate.one_q -> int -> unit
val apply_cx : t -> int -> int -> unit
val apply_cz : t -> int -> int -> unit
val apply_rzz : t -> float -> int -> int -> unit
val apply_swap : t -> int -> int -> unit

(** [apply_unitary st kind] applies one unitary gate; a barrier is a
    no-op. Raises [Invalid_argument] on a measurement, reset or
    conditional X, which need a classical register. *)
val apply_unitary : t -> Quantum.Gate.kind -> unit

(** Apply a Pauli (for noise injection): 0 = I, 1 = X, 2 = Y, 3 = Z. *)
val apply_pauli : t -> int -> int -> unit

(** Deep copy — branch-enumeration checkers fork the state at each
    measurement instead of sampling it. *)
val copy : t -> t

(** [collapse st q outcome] projects qubit [q] onto [outcome] and
    renormalizes, regardless of how unlikely the outcome was (callers
    weigh branches by {!prob_one} themselves). *)
val collapse : t -> int -> int -> unit

(** [measure rng st q] samples an outcome, collapses, renormalizes. *)
val measure : Random.State.t -> t -> int -> int

(** Measure-and-discard: force the qubit to |0> (measure, X if 1). *)
val reset : Random.State.t -> t -> int -> unit

(** Probability that qubit [q] reads 1. *)
val prob_one : t -> int -> float
