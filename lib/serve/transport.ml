(* The transport layer: one address grammar and two wire framings
   behind a single listener/connection API.

   Unix-domain sockets keep PR 6's newline-delimited framing so every
   existing client keeps working byte-for-byte. TCP uses length-prefixed
   frames (4-byte big-endian header) — self-describing, newline-safe,
   and cheap to validate against garbage: a peer speaking the wrong
   protocol produces an absurd length and the connection dies with one
   structured failure instead of buffering forever. *)

type addr = Unix of string | Tcp of string * int

let addr_to_string = function
  | Unix path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let addr_of_string s =
  if s = "" then Error "empty address"
  else
    match String.index_opt s ':' with
    (* Bare strings are Unix-socket paths — the PR 6 grammar. *)
    | None -> Ok (Unix s)
    | Some i ->
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      (match scheme with
      | "unix" ->
        if rest = "" then Error "unix: needs a socket path, e.g. unix:/tmp/caqr.sock"
        else Ok (Unix rest)
      | "tcp" ->
        (match String.rindex_opt rest ':' with
        | None -> Error "tcp: needs host and port, e.g. tcp:127.0.0.1:7391"
        | Some j ->
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          if host = "" then Error "tcp: needs a host, e.g. tcp:127.0.0.1:7391"
          else
            (match int_of_string_opt port with
            | Some p when p >= 0 && p <= 65535 -> Ok (Tcp (host, p))
            | _ -> Error (Printf.sprintf "invalid tcp port %S" port)))
      | other ->
        Error
          (Printf.sprintf "unknown transport scheme %S (use unix: or tcp:)"
             other))

type framing = Newline | Length_prefixed

let framing_of_addr = function Unix _ -> Newline | Tcp _ -> Length_prefixed

(* A frame larger than this is not a request, it is garbage (or an
   attack): the server's own admission cap tops out well below. *)
let max_frame_bytes = 64 * 1024 * 1024

(* Dying on SIGPIPE would let one disconnected client kill the daemon;
   every entry point forces this once and write errors surface as
   EPIPE instead. *)
let ignore_sigpipe =
  lazy
    (try Stdlib.Sys.set_signal Stdlib.Sys.sigpipe Stdlib.Sys.Signal_ignore
     with Invalid_argument _ | Stdlib.Sys_error _ -> ())

let resolve_host host =
  try Stdlib.Option.some (Unix.inet_addr_of_string host)
  with Failure _ -> (
    try
      let h = Unix.gethostbyname host in
      if Array.length h.Unix.h_addr_list > 0 then Some h.Unix.h_addr_list.(0)
      else None
    with Not_found -> None)

let sockaddr_of = function
  | Unix path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    (match resolve_host host with
    | Some inet -> Unix.ADDR_INET (inet, port)
    | None ->
      raise
        (Unix.Unix_error
           (Unix.EINVAL, "Serve.Transport", "unresolvable host " ^ host)))

(* ---- connections ---- *)

type conn = {
  fd : Unix.file_descr;
  framing : framing;
  buf : Buffer.t;  (** raw bytes read but not yet framed *)
  msgs : string Queue.t;  (** framed messages not yet delivered *)
  chunk : Bytes.t;
  mutable eof : bool;
}

let conn_of_fd framing fd =
  {
    fd;
    framing;
    buf = Buffer.create 4096;
    msgs = Queue.create ();
    chunk = Bytes.create 65536;
    eof = false;
  }

let close c =
  c.eof <- true;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* A connected pair of in-process conns over a socketpair — no
   listener, no filesystem. This is what lets the chaos harness and
   tests exercise the exact framing/read/write code paths (including
   their fault-injection sites) without standing up a daemon. *)
let pair ?(framing = Newline) () =
  Lazy.force ignore_sigpipe;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (conn_of_fd framing a, conn_of_fd framing b)

(* Bytes read off the socket but not yet framed into a message — the
   tell-tale of a peer stalled mid-frame (half a length prefix, a line
   with no newline). The server reads this to distinguish "idle" from
   "wedged" when a connection deadline expires. *)
let pending_bytes c = Buffer.length c.buf

let frame_error fmt =
  Printf.ksprintf
    (fun detail ->
      raise
        (Guard.Error.Guard_error
           (Guard.Error.v ~stage:"serve.transport" ~site:"wire.frame" detail)))
    fmt

(* Move every complete message out of [buf] into [msgs]. *)
let reframe_newline c =
  Guard.Inject.hit "wire.frame";
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
    String.split_on_char '\n' (String.sub s 0 last)
    |> List.iter (fun l -> Queue.add l c.msgs);
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s (last + 1) (String.length s - last - 1)

let reframe_length c =
  Guard.Inject.hit "wire.frame";
  let s = Buffer.contents c.buf in
  let n = String.length s in
  let pos = ref 0 in
  let scanning = ref true in
  while !scanning do
    if n - !pos < 4 then scanning := false
    else begin
      let len =
        (Char.code s.[!pos] lsl 24)
        lor (Char.code s.[!pos + 1] lsl 16)
        lor (Char.code s.[!pos + 2] lsl 8)
        lor Char.code s.[!pos + 3]
      in
      if len > max_frame_bytes then
        (* A structured error, not failwith: the handler owning this
           connection contains it and closes, instead of dying. *)
        frame_error
          "frame of %d bytes exceeds the %d-byte cap (wrong framing for \
           this transport?)"
          len max_frame_bytes
      else if n - !pos - 4 < len then scanning := false
      else begin
        Queue.add (String.sub s (!pos + 4) len) c.msgs;
        pos := !pos + 4 + len
      end
    end
  done;
  if !pos > 0 then begin
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s !pos (n - !pos)
  end

let reframe c =
  match c.framing with
  | Newline -> reframe_newline c
  | Length_prefixed -> reframe_length c

let read_once c =
  Guard.Inject.hit "wire.read";
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> c.eof <- true
  | n -> Buffer.add_subbytes c.buf c.chunk 0 n
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    c.eof <- true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let readable ~timeout_s c =
  match Unix.select [ c.fd ] [] [] timeout_s with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

type recv_result = Msgs of string list | Eof | Timeout

(* [timeout_s] is a TOTAL budget for this call, not a per-read idle
   timeout. The distinction matters exactly once, and then a lot: a
   slow-loris peer trickling one byte per poll interval would reset a
   per-read timeout forever and pin the handler; against an absolute
   deadline the trickle changes nothing and the call returns [Timeout]
   on schedule. *)
let recv_batch ?timeout_s ~max:cap c =
  let deadline =
    Option.map (fun dt -> Unix.gettimeofday () +. dt) timeout_s
  in
  let rec await () =
    if not (Queue.is_empty c.msgs) then `Ready
    else if c.eof then `Eof
    else
      match deadline with
      | None ->
        read_once c;
        reframe c;
        await ()
      | Some d ->
        let left = d -. Unix.gettimeofday () in
        if left <= 0. then `Timeout
        else if readable ~timeout_s:left c then begin
          read_once c;
          reframe c;
          await ()
        end
        else `Timeout
  in
  match await () with
  | `Eof -> Eof
  | `Timeout -> Timeout
  | `Ready ->
    (* Drain whatever the peer already pipelined — without blocking —
       so one dispatch can batch it. *)
    let rec drain () =
      if Queue.length c.msgs < cap && (not c.eof) && readable ~timeout_s:0.0 c
      then begin
        read_once c;
        reframe c;
        drain ()
      end
    in
    drain ();
    let rec take acc k =
      if k = 0 || Queue.is_empty c.msgs then List.rev acc
      else take (Queue.pop c.msgs :: acc) (k - 1)
    in
    Msgs (take [] cap)

(* Framing as a pure function of bytes, so the wire fuzzer can build
   well-formed — and then surgically malformed — frames without a
   connection in hand. *)
let encode ~framing payload =
  match framing with
  | Newline ->
    if String.contains payload '\n' then
      invalid_arg
        "Serve.Transport.send: newline framing cannot carry embedded newlines";
    payload ^ "\n"
  | Length_prefixed ->
    let len = String.length payload in
    if len > max_frame_bytes then
      invalid_arg "Serve.Transport.send: frame exceeds the 64 MiB cap";
    let hdr = Bytes.create 4 in
    Bytes.set hdr 0 (Char.chr ((len lsr 24) land 0xff));
    Bytes.set hdr 1 (Char.chr ((len lsr 16) land 0xff));
    Bytes.set hdr 2 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set hdr 3 (Char.chr (len land 0xff));
    Bytes.to_string hdr ^ payload

let frame c payload = encode ~framing:c.framing payload

let writable ~timeout_s c =
  match Unix.select [] [ c.fd ] [] timeout_s with
  | _, [ _ ], _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* [timeout_s] bounds the whole send, like recv_batch's budget: a peer
   that stops draining its receive buffer stalls our write, and without
   a deadline that stall pins the handler domain as surely as a
   slow-loris read. On expiry the connection is marked dead and a
   structured (recoverable) error raised for the owner to contain. *)
let send ?timeout_s c payloads =
  if payloads <> [] && not c.eof then begin
    Guard.Inject.hit "wire.write";
    let data = String.concat "" (List.map (frame c) payloads) in
    let len = String.length data in
    let deadline =
      Option.map (fun dt -> Unix.gettimeofday () +. dt) timeout_s
    in
    let written = ref 0 in
    try
      while !written < len do
        (match deadline with
        | None -> ()
        | Some d ->
          let left = d -. Unix.gettimeofday () in
          if left <= 0. || not (writable ~timeout_s:left c) then begin
            c.eof <- true;
            raise
              (Guard.Error.Guard_error
                 (Guard.Error.v ~recoverable:true ~stage:"serve.transport"
                    ~site:"conn.write"
                    (Printf.sprintf
                       "write stalled at %d of %d bytes past the deadline"
                       !written len)))
          end);
        match Unix.write_substring c.fd data !written (len - !written) with
        | n -> written := !written + n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> c.eof <- true
  end

(* ---- listeners ---- *)

type listener = {
  lfd : Unix.file_descr;
  laddr : addr;
  lframing : framing;
  mutable lclosed : bool;
}

(* A socket file can be left behind by a crashed daemon (unlink in
   close_listener never ran) — or it can belong to a live server. The
   only honest way to tell them apart is to knock: connect succeeding
   means someone is accepting, so binding must fail loudly rather than
   steal the path; connect refused means the inode is an orphan and is
   safe to reclaim. *)
let unix_socket_alive path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        false
      | exception Unix.Unix_error _ ->
        (* Permission trouble, weird inode: treat as live and let the
           bind report the conflict instead of deleting blind. *)
        true)

let bind addr =
  Lazy.force ignore_sigpipe;
  match addr with
  | Unix path ->
    let bind_once () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.bind fd (Unix.ADDR_UNIX path) with
      | () ->
        Unix.listen fd 64;
        fd
      | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    in
    let fd =
      match bind_once () with
      | fd -> fd
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _)
        when not (unix_socket_alive path) ->
        Obs.Metrics.incr "serve.socket.reclaimed";
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        bind_once ()
    in
    { lfd = fd; laddr = addr; lframing = Newline; lclosed = false }
  | Tcp (host, _port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (sockaddr_of addr);
    Unix.listen fd 64;
    (* Port 0 asks the kernel for an ephemeral port; report the real
       one so tests and --addr tcp:HOST:0 users can find the daemon. *)
    let actual =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> Tcp (host, p)
      | _ -> addr
    in
    { lfd = fd; laddr = actual; lframing = Length_prefixed; lclosed = false }

let bound_addr l = l.laddr

let accept ?timeout_s l =
  let do_accept () =
    match Unix.accept l.lfd with
    | fd, _ ->
      (match l.laddr with
      | Tcp _ -> (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
      | Unix _ -> ());
      Some (conn_of_fd l.lframing fd)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      None
  in
  match timeout_s with
  | None -> do_accept ()
  | Some dt ->
    (match Unix.select [ l.lfd ] [] [] dt with
    | [ _ ], _, _ -> do_accept ()
    | _ -> None
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> None)

(* Idempotent: the draining shutdown path closes the listener as soon
   as the drain flag is seen (to refuse new connections), and the
   run-loop's finally closes it again unconditionally. *)
let close_listener l =
  if not l.lclosed then begin
    l.lclosed <- true;
    (try Unix.close l.lfd with Unix.Unix_error _ -> ());
    match l.laddr with
    | Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end

let connect_socket addr =
  Lazy.force ignore_sigpipe;
  let domain =
    match addr with Unix _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let connect addr =
  let fd = connect_socket addr in
  (match addr with
  | Tcp _ -> (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Unix _ -> ());
  conn_of_fd (framing_of_addr addr) fd
