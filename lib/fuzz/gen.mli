(** Structured random *dynamic*-circuit generator.

    Unlike the measure-free generator in [test/test_properties.ml], this
    one emits the full gate alphabet the compiler claims to handle:
    mid-circuit measurement, reset, classically-controlled X and
    barriers, plus the unitary one- and two-qubit gates. Generated
    circuits are always well-formed by construction — every conditional
    X reads a classical bit some earlier measurement wrote — so an
    oracle failure downstream is a compiler bug, not generator noise. *)

type config = {
  min_qubits : int;
  max_qubits : int;
  min_gates : int;
  max_gates : int;
  (* Relative weights of the gate classes drawn per slot. *)
  w_one_q : int;
  w_two_q : int;
  w_measure : int;
  w_reset : int;
  w_if_x : int;  (** skipped (redrawn as one-q) until a measure has run *)
  w_barrier : int;
  p_share_clbit : float;
      (** probability a measurement targets an already-written clbit —
          shared clbits exercise the reset-splice fallback paths *)
  p_measure_tail : float;
      (** probability the circuit ends with measure-all, the shape the
          reuse transform likes best *)
}

(** 2–6 qubits, 4–40 gates, dynamic operations at realistic rates. *)
val default : config

val circuit : config -> Exec.Prng.t -> Quantum.Circuit.t
