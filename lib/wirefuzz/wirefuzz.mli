(** Wire-level chaos for the compilation service: mutated byte streams
    against a {e live} daemon, with three promises checked after every
    attack — the daemon never crashes, never hangs past the deadline,
    and answers a well-formed follow-up request byte-identically to a
    reference captured before any attack ran.

    Attacks speak raw sockets beneath {!Serve.Client}, so they can send
    bytes the client API never would: truncated frames, garbage or
    oversized length prefixes, mid-batch disconnects, slow-loris
    stalls, and corrupted-but-correctly-framed JSON. Case [i] of a
    campaign derives from [Prng.split master i] — the same [(seed,
    cases, addr)] replays the same attack stream.

    Counters: ["fuzz.wire.cases"], ["fuzz.wire.failures"]. *)

type attack =
  | Truncated_frame  (** a prefix of one valid frame, then close *)
  | Garbage_prefix  (** random bytes where a frame should start *)
  | Oversized_prefix
      (** a length prefix past the 64 MiB cap (TCP); an unterminated
          over-long line (Unix) *)
  | Mid_batch_disconnect
      (** one valid frame + a prefix of a second, then close *)
  | Stalled_frame
      (** a partial frame held past the server's connection deadline *)
  | Mutated_json  (** correctly framed, corrupted payload *)

val attack_name : attack -> string

type failure = {
  case_index : int;
  attack : attack;
  message : string;
}

type summary = {
  addr : string;
  cases : int;
  timeouts_seen : int;
      (** structured [request.timeout] responses the attacks provoked *)
  failures : failure list;  (** empty = the daemon kept all three promises *)
}

(** [run ?stall_s ~seed ~cases ~addr ()] attacks a daemon already
    listening on [addr]. [stall_s] (default 0.6) is how long the
    slow-loris holds a partial frame — set it past the daemon's
    [conn_timeout_ms] so the stall is answered with a structured
    timeout, which [timeouts_seen] counts. Every liveness check gives
    up after 30 s.
    Raises [Failure] if the daemon is unreachable while priming the
    reference. *)
val run :
  ?stall_s:float ->
  seed:int ->
  cases:int ->
  addr:Serve.Transport.addr ->
  unit ->
  summary

(** [selftest ?seed ?cases ~transport ()] is the all-in-one harness:
    spawn an in-process daemon ([conn_timeout_ms = 250], 2 handler
    domains) on the chosen transport, run the campaign, shut the daemon
    down through the protocol and join it — so a daemon crash surfaces
    here as the spawned domain's exception. Defaults: seed 1, 50
    cases. *)
val selftest :
  ?seed:int ->
  ?cases:int ->
  transport:[ `Unix | `Tcp ] ->
  unit ->
  summary

(** One line per failure plus totals. *)
val pp_summary : Format.formatter -> summary -> unit
