(** The service transport abstraction: one address grammar, two wire
    framings, one listener/connection API shared by the daemon
    ({!Server}), the client ({!Client}) and the CLI's [--addr] flag.

    {b Addresses.} [unix:PATH] is a Unix-domain socket; [tcp:HOST:PORT]
    is a TCP socket ([PORT] 0 asks the kernel for an ephemeral port —
    read it back with {!bound_addr}). A bare string with no scheme is a
    Unix-socket path.

    {b Framing} is implied by the transport. Unix sockets keep the
    original newline-delimited JSON framing, so version-1 clients keep
    working byte-for-byte. TCP frames every message with a 4-byte
    big-endian length prefix: self-describing, safe for payloads
    containing newlines, and capped at 64 MiB so a peer speaking the
    wrong protocol fails fast instead of buffering forever. The payload
    grammar (one JSON object per message, see {!Protocol}) is identical
    on both.

    Connections are blocking and single-owner (one domain reads/writes a
    [conn] at a time — the server gives each accepted connection to one
    handler domain). All entry points ignore [SIGPIPE] process-wide so a
    vanished peer surfaces as [EPIPE]/eof, never a killed daemon. *)

type addr = Unix of string | Tcp of string * int

(** Parse the [--addr] grammar: [unix:PATH], [tcp:HOST:PORT], or a bare
    Unix-socket path. Rejects unknown schemes, empty hosts/paths and
    non-numeric or out-of-range ports. *)
val addr_of_string : string -> (addr, string) result

(** [unix:PATH] / [tcp:HOST:PORT] — the canonical spelling; inverse of
    {!addr_of_string}. *)
val addr_to_string : addr -> string

type framing = Newline | Length_prefixed

(** [Unix _] speaks {!Newline}, [Tcp _] speaks {!Length_prefixed}. *)
val framing_of_addr : addr -> framing

(** Hard cap on one frame (64 MiB) — both send and receive. *)
val max_frame_bytes : int

(** [encode ~framing msg] is the exact byte string {!send} would put on
    the wire for [msg] — exposed so the wire fuzzer can build
    well-formed frames and then corrupt them surgically. Raises
    [Invalid_argument] like {!send}. *)
val encode : framing:framing -> string -> string

type listener
type conn

(** {1 Listening} *)

(** [bind addr] binds and listens. For TCP, [SO_REUSEADDR] is set. A
    Unix-socket path already bound is probed with a connect: a live
    server keeps it and [bind] raises [EADDRINUSE]; a stale file left
    by a crashed daemon (connect refused) is unlinked and the path
    reclaimed (counted in ["serve.socket.reclaimed"]). Raises
    [Unix.Unix_error] on failure (port in use, bad path, unresolvable
    host). *)
val bind : addr -> listener

(** The actual bound address — resolves [tcp:HOST:0] to the ephemeral
    port the kernel picked. *)
val bound_addr : listener -> addr

(** [accept ?timeout_s l] waits for one connection. With [timeout_s],
    returns [None] if nothing arrived in time — the daemon's stop-flag
    poll point. *)
val accept : ?timeout_s:float -> listener -> conn option

(** Close the socket; Unix listeners also remove their socket file.
    Idempotent — the draining shutdown path closes the listener early
    and the run loop's cleanup closes it again. *)
val close_listener : listener -> unit

(** {1 Connections} *)

(** [connect addr] — client side. Raises [Unix.Unix_error] when nobody
    is listening. *)
val connect : addr -> conn

(** [connect_socket addr] is the bare connected stream socket {!connect}
    wraps: address resolution (an unresolvable host raises
    [Unix_error (EINVAL, _, _)]) and connect, closing the socket on
    failure. The wire fuzzer writes raw bytes to it. *)
val connect_socket : addr -> Unix.file_descr

(** [pair ?framing ()] is a connected in-process conn pair over a
    socketpair (default {!Newline} framing) — the full framing and
    read/write paths, including their fault-injection sites, without a
    listener. Used by the chaos harness and tests. *)
val pair : ?framing:framing -> unit -> conn * conn

(** [send ?timeout_s c msgs] frames and writes every message in one
    payload. A vanished peer marks the connection eof instead of
    raising. [timeout_s] bounds the {e whole} write: a peer that stops
    draining marks the connection eof and raises a structured,
    recoverable {!Guard.Error.Guard_error} (stage ["serve.transport"],
    site ["conn.write"]). Raises [Invalid_argument] if a message cannot
    be framed (embedded newline under newline framing;
    > {!max_frame_bytes}). *)
val send : ?timeout_s:float -> conn -> string list -> unit

(** Bytes received but not yet forming a complete frame — non-zero when
    the peer stalled mid-frame (half a length prefix, an unterminated
    line). *)
val pending_bytes : conn -> int

type recv_result =
  | Msgs of string list  (** at least one message, in arrival order *)
  | Eof
  | Timeout  (** only when [?timeout_s] was given *)

(** [recv_batch ?timeout_s ~max c] waits for one message, then drains —
    without blocking — whatever the peer already pipelined behind it,
    up to [max] messages. Surplus stays queued for the next call.
    [timeout_s] is an {e absolute} budget for the call, clocked from
    entry: a peer trickling bytes does not extend it, so a slow-loris
    cannot pin the caller. Raises {!Guard.Error.Guard_error} (stage
    ["serve.transport"], site ["wire.frame"]) on a frame that violates
    the framing (oversized length prefix). *)
val recv_batch : ?timeout_s:float -> max:int -> conn -> recv_result

val close : conn -> unit
