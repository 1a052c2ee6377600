(** Device calibration data: per-link CNOT error and duration, per-qubit
    readout error and coherence times. The paper exports these from IBM
    systems; we synthesize them from published Falcon-processor ranges with
    a seeded RNG (see DESIGN.md substitutions). *)

type link = { cx_error : float; cx_duration_dt : int }

type qubit = {
  readout_error : float;
  t1_dt : float;  (** amplitude-damping time in dt *)
  t2_dt : float;  (** dephasing time in dt *)
  one_q_error : float;
}

type t

(** [synthetic ~seed coupling] draws calibration for every qubit and link
    of the coupling graph: CNOT error 0.6–2.5%, CNOT duration 1200–2400 dt,
    readout error 1–5%, T1/T2 around 100 us (in dt), 1q error 0.02–0.06%. *)
val synthetic : seed:int -> Galg.Graph.t -> t

(** Uniform ideal calibration (zero error), for noise-free comparisons. *)
val ideal : Galg.Graph.t -> t

(** [scale ~factor t] multiplies every error rate by [factor] (clamped to
    [0, 0.5] for gate/readout errors) and divides T1/T2 by it — the knob
    behind noise-sensitivity ablations. [factor = 0] gives an ideal
    device; durations are unchanged. *)
val scale : factor:float -> t -> t

val link : t -> int -> int -> link
val qubit : t -> int -> qubit
