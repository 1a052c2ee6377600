(** Pipeline-wide observability: named counters and wall-clock phase
    timers, kept in a single process-global registry.

    The registry is domain-safe: every operation takes one global mutex,
    so instrumented passes may run inside [Exec.Pool] workers. Counter
    totals stay deterministic under parallelism (per-task increments
    commute); which domain contributed is not recorded.

    The compiler passes are instrumented unconditionally — a counter bump
    is two hash lookups — so callers decide only when to {!reset} and when
    to {!snapshot}. [Pipeline.compile] does neither; `caqr_cli --timings`
    and `bench/main.exe` reset around the work they measure and print or
    serialize the snapshot.

    Conventions: counter keys are dot-separated (["reuse.analyze.fresh"],
    ["qs.search.nodes"], ["qs.searches"]); timer keys start with ["time."]
    (["time.analyze"], ["time.search"], ["time.route"], ["time.verify"]).
    Phase timers may nest (the search timer includes analyze time), so the
    timings are a profile, not a partition. *)

(** Reset every counter and timer to zero. *)
val reset : unit -> unit

(** [incr ?by name] bumps counter [name] (default [by = 1]). *)
val incr : ?by:int -> string -> unit

(** [declare name] materializes counter [name] at zero if absent — so a
    failure counter shows up in snapshots as "never happened" rather
    than being indistinguishable from "not wired". Never resets an
    existing value. *)
val declare : string -> unit

(** {!declare} for gauges. *)
val declare_gauge : string -> unit

(** Current value of a counter (0 when never bumped). *)
val count : string -> int

(** [set_gauge name v] records the current level of [name] — a value
    that goes up and down (in-flight requests, cache bytes on disk) as
    opposed to a monotonically accumulating counter. The last write
    wins. *)
val set_gauge : string -> int -> unit

(** Current value of a gauge (0 when never set). *)
val gauge : string -> int

(** [add_time name seconds] accumulates into timer [name]; negative deltas
    (non-monotonic clock steps) are clamped to zero. *)
val add_time : string -> float -> unit

(** [time name f] runs [f ()] and adds its wall-clock duration to timer
    [name], exceptions included. *)
val time : string -> (unit -> 'a) -> 'a

(** Accumulated seconds of a timer (0 when never used). *)
val timing : string -> float

(** Immutable view of the registry, sorted by key. *)
type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;  (** last-written levels *)
  timings : (string * float) list;  (** seconds *)
}

val snapshot : unit -> snapshot

(** Human-readable table (counters, then timings in ms). *)
val pp : Format.formatter -> snapshot -> unit

(** Machine-readable rendering:
    [{"counters":{...},"gauges":{...},"timings_s":{...}}]. *)
val to_json : snapshot -> string
