(** Chaos matrix: sweep every registered fault-injection site across a
    set of benchmarks and check the "valid output or structured error"
    contract.

    For each (site, benchmark) cell, the site is armed at a seed-derived
    hit and a full pipeline workload runs: ladder-supervised compiles
    (SR and a QS strategy) with static verification, the applicability
    test, shot simulation, a QASM print/parse roundtrip, a corpus
    write, and a loopback socketpair exchange over {!Serve.Transport}
    covering its wire.* sites. Everything runs single-domain, so the
    armed fault lands at a deterministic hit — the same seed produces a
    byte-identical matrix on every run.

    Cell outcomes split containment from real failures: degraded
    compiles and structured errors are the resilience layer WORKING;
    [Verify_failed] (the validator refuted an artifact) and
    [Uncontained] (a raw exception escaped the guards) are bugs. *)

type outcome =
  | Ok_clean  (** workload succeeded; no rung failed *)
  | Ok_degraded of int
      (** workload succeeded after this many ladder demotions *)
  | Contained of Guard.Error.t
      (** the workload failed, but with one structured error *)
  | Verify_failed of string
      (** the validator refuted a compiled artifact — a real bug *)
  | Uncontained of string
      (** a raw exception escaped the guard layer — a coverage gap *)

type cell = {
  site : Guard.Inject.site;
  bench : string;
  fired : int;  (** 1 when the armed fault actually triggered, else 0 *)
  outcome : outcome;
}

(** [run ?seed ?deadline_ms benches] — the full matrix,
    {!Guard.Inject.sites} x [benches], in catalog-then-bench order.
    [deadline_ms] additionally arms a cooperative wall-clock budget per
    cell. *)
val run :
  ?seed:int ->
  ?deadline_ms:int ->
  (string * Caqr.Pipeline.input) list ->
  cell list

(** One line per cell; stable across runs for a fixed seed. *)
val pp_matrix : Format.formatter -> cell list -> unit

(** No [Verify_failed] and no [Uncontained] cell. *)
val all_contained : cell list -> bool

val any_verify_failed : cell list -> bool

(** Names of the sites that actually fired somewhere in the matrix,
    sorted. *)
val sites_fired : cell list -> string list
