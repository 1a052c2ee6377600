(** Minimal blocking client for the service protocol, used by the CLI's
    [call] subcommand, the CI smoke step and the test suite. Framing
    follows the address: newline-delimited on Unix sockets,
    length-prefixed on TCP (see {!Transport}). *)

(** [call ~addr ?timeout_s lines] connects to the daemon, sends every
    request in one write (so the server sees them as one pipelined
    batch), and returns one response per request, in order. Raises
    [Unix.Unix_error] when the daemon is not listening and [Failure]
    when the connection closes — or, with [timeout_s], makes no
    progress for that long — before every response arrived. *)
val call : addr:Transport.addr -> ?timeout_s:float -> string list -> string list

(** [backoff_delays ~seed n] is the deterministic equal-jitter
    exponential schedule {!call_retry} sleeps through: [n] delays, the
    k-th drawn uniformly from the upper half of [min 0.3 (0.02 * 2^k)]
    seconds. *)
val backoff_delays : seed:int -> int -> float list

(** [call_retry ~addr ?seed ?timeout_s lines] — {!call}, retrying the
    {e connect phase only} (refused, reset, or missing-socket errors:
    the daemon is still starting or restarting) up to 12 attempts under
    {!backoff_delays}. A failure after any bytes were sent is never
    retried: a half-processed batch is not idempotent. Default seed 1. *)
val call_retry :
  addr:Transport.addr ->
  ?seed:int ->
  ?timeout_s:float ->
  string list ->
  string list
