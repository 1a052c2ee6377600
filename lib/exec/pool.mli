(** Deterministic parallel work pool on OCaml 5 domains.

    The contract: for a fixed input, every function returns a result
    byte-identical to the sequential ([jobs = 1]) run, for ANY [jobs]
    value. Tasks are assigned to domains by a static partition of their
    submission indices (domain-per-batch, no shared queue), results are
    merged back in submission order, and {!map_seeded} derives task
    [i]'s PRNG purely from [(seed, i)] via {!Prng.split}. Determinism
    therefore never depends on scheduling, core count, or [jobs].

    Exceptions: if tasks raise, the FIRST failing task in submission
    order determines the error after all domains have joined — again
    independent of timing. The re-raise is a structured
    {!Guard.Error.Guard_error} (or [Budget_exceeded], matching the
    task's exception) whose detail is prefixed with the failing task's
    submission index ["task <i>: ..."]; a guard fault keeps its inner
    stage and site name, any other exception is wrapped under stage
    ["exec.pool"], site ["pool.task"]. The original backtrace is
    preserved.

    Budgets: the caller's scoped deadline ({!Guard.Budget.current}) is
    captured at submission and installed in every worker domain, so a
    per-request budget bounds the request's fan-out too.

    Resilience: a task failing with a RECOVERABLE guard error (a
    transient fault — see {!Guard.Inject}) is retried in place, at most
    twice, before the failure is recorded; retries bump the
    ["guard.retries"] counter. Each task dispatch passes the
    ["pool.task"] injection site.

    Observability: each run bumps the ["exec.pool.runs"],
    ["exec.pool.tasks"] and ["exec.pool.domains"] counters and records a
    per-domain ["exec.domain<d>.time"] timer in {!Obs.Metrics}, all from
    the calling domain. *)

(** Hard cap on worker domains (16). *)
val max_jobs : int

(** [Domain.recommended_domain_count] clamped to [\[1, max_jobs\]] —
    the default when [?jobs] is omitted, and the CLI's [--jobs]
    default. *)
val default_jobs : unit -> int

(** [map ?jobs f xs] is [List.map f xs] computed on up to [jobs]
    domains. [jobs] is clamped to [\[1, min max_jobs (length xs)\]]. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [mapi ?jobs f xs] is [List.mapi f xs], parallel as {!map}. *)
val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list

(** [map_seeded ?jobs ~seed f xs] runs [f prng_i x_i] where
    [prng_i = Prng.split (Prng.make seed) i] — each task gets its own
    stream, a pure function of [(seed, i)]. *)
val map_seeded :
  ?jobs:int -> seed:int -> (Prng.t -> 'a -> 'b) -> 'a list -> 'b list
