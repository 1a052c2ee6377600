(** The fuzzing campaign driver.

    Case [i] of a run is generated from [Exec.Prng.split master i], so the
    case stream is a pure function of the master seed: the same
    [(seed, cases)] always produces the same circuits, the same oracle
    verdicts and the same summary, and any single case replays in
    isolation. On an oracle failure the circuit is delta-minimized
    against that oracle and (optionally) persisted to the corpus.

    [Obs.Metrics] counts ["fuzz.cases"], ["fuzz.failures"],
    ["fuzz.shrink.steps"] and per-oracle pass/fail. *)

type failure = {
  case_index : int;
  case_seed : int;  (** reproduces the case via [--seed N --cases 1] semantics *)
  oracle : Oracle.t;
  message : string;
  original_gates : int;
  minimized : Quantum.Circuit.t;
  corpus_file : string option;  (** where {!Corpus.add} put it, if persisted *)
}

type summary = {
  seed : int;
  cases : int;
  oracles : Oracle.t list;
  failures : failure list;  (** in case order *)
}

(** [run ?config ?oracles ?corpus_dir ?jobs ~seed ~cases ()] — [oracles]
    defaults to {!Oracle.all}, [corpus_dir] to [None] (don't persist).

    [jobs] fans the case batch out over {!Exec.Pool} domains (default:
    {!Exec.Pool.default_jobs}); the summary is byte-identical for every
    value because each case is a pure function of [(seed, index)].
    Corpus writes stay sequential, in case order, after all domains have
    joined. *)
val run :
  ?config:Gen.config ->
  ?oracles:Oracle.t list ->
  ?corpus_dir:string ->
  ?jobs:int ->
  seed:int ->
  cases:int ->
  unit ->
  summary

(** Human-readable report: one line per failure plus totals. *)
val pp_summary : Format.formatter -> summary -> unit
