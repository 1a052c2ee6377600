(** How complete a reuse-search result is — the service's quality/time
    dial.

    [Exact] means the engine ran to its deterministic completion under
    its configured options (search-space exhaustion or the configured
    DFS node cap): the same request reproduces the same result, so the
    artifact is deadline-independent and safe to cache. It does not
    mean optimal: a QS search ended by its node cap, or a greedy engine,
    can stop wider than the fewest qubits a reuse sequence reaches.
    [Anytime] means
    a wall-clock {!Guard.Budget} trip cut the engine short and the
    result is the best incumbent found up to that point: still a valid,
    certificate-carrying artifact, just possibly wider than what the
    same configuration would reach with more time — and dependent on
    how much wall clock this particular run happened to get. *)

type t =
  | Exact
  | Anytime of {
      steps_done : int;
          (** search steps done before the budget ended the run (QS:
              DFS nodes derived) *)
      frontier_left : int;
          (** work counted but never done (QS: candidate branches not
              yet tried on the live DFS stack) — a rough measure of how
              much space was left unexplored *)
    }

val is_exact : t -> bool

(** ["exact"] or ["anytime"] — the wire spelling used by the serve
    protocol's [quality] response field. *)
val name : t -> string

(** One-line rendering with the anytime counters, for CLI output. *)
val to_string : t -> string
