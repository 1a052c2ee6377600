(** Cooperative wall-clock deadlines and step budgets.

    A budget never preempts: hot loops (blossom augmenting-path search,
    DSATUR, router SWAP search, QS DFS, per-shot simulation) call a
    checkpoint each iteration, and the checkpoint raises a typed
    {!Error.Budget_exceeded} instead of letting the loop hang or
    diverge. Every trip bumps the ["guard.budget.trips"] counter in
    {!Obs.Metrics}.

    Deadlines are {b scoped} budgets ({!t}, {!scoped}), which are
    domain-local: two requests compiled on different domains each carry
    their own deadline without clobbering one another. This is what
    lets a long-lived server give every request its own budget.
    {!Exec.Pool} (at each call) and {!Exec.Crew} (at creation) capture
    the caller's scope ({!current}) and install it in each worker
    domain, so fan-out inherits the deadline.

    When nothing is armed a checkpoint costs one domain-local load and a
    float compare — no clock read. *)

(** An immutable budget value: an absolute wall-clock deadline that can
    be created in one domain and installed ({!scoped}) in another. *)
type t

(** No deadline at all. [scoped unlimited f] leaves the current scope
    unchanged. *)
val unlimited : t

(** [make ?ms ()] is a deadline [ms] milliseconds from now
    ([None] = {!unlimited}). *)
val make : ?ms:int -> unit -> t

(** [scoped b f] runs [f] with [b] installed as the current domain's
    scoped deadline. Nested scopes tighten, never extend; the previous
    scope is restored on exit, exceptions included. *)
val scoped : t -> (unit -> 'a) -> 'a

(** The deadline in effect for this domain. Capture it before handing
    work to another domain, then install it there with {!scoped}. *)
val current : unit -> t

(** Is a deadline currently armed? *)
val has_deadline : unit -> bool

(** [fraction f] is a budget expiring after share [f] (clamped to
    [0..1]) of the time left on the current deadline — {!unlimited} when
    nothing is armed. This is how a pipeline phase reserves headroom for
    the phases after it: an anytime search scoped to [fraction 0.6]
    leaves 40% of the request's remaining time for routing and
    verification. *)
val fraction : float -> t

(** [checkpoint ~stage ~site] raises {!Error.Budget_exceeded} when the
    tightest armed deadline has passed; no-op otherwise. *)
val checkpoint : stage:string -> site:string -> unit

(** [ticker ~stage ~site ?limit ()] returns a tick function for one
    loop: each call counts a step, raises {!Error.Budget_exceeded} past
    [limit] steps (when given), and polls the deadline. *)
val ticker : stage:string -> site:string -> ?limit:int -> unit -> unit -> unit
