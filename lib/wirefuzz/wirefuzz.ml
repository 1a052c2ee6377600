(* Wire-level chaos: drive a LIVE daemon with mutated byte streams and
   hold it to three promises, checked after every single attack:

   1. it never crashes (the follow-up request still gets an answer);
   2. it never hangs past the deadline (every follow-up runs under a
      client-side timeout);
   3. a well-formed follow-up is answered BYTE-IDENTICALLY to the
      reference captured before any attack ran — hostile traffic must
      not perturb the content-addressed result, ever.

   Attacks speak raw sockets, below {!Serve.Client}: the point is to
   hand the transport layer exactly the bytes a broken or malicious
   peer would, including ones the client API cannot produce. Case [i]
   derives from [Prng.split master i] like every other campaign in this
   library, so a failing case replays in isolation. *)

type attack =
  | Truncated_frame  (** a prefix of one valid frame, then close *)
  | Garbage_prefix  (** random bytes where a frame should start *)
  | Oversized_prefix
      (** a length prefix past the 64 MiB cap (TCP); an unterminated
          over-long line (Unix) *)
  | Mid_batch_disconnect
      (** one valid frame + a prefix of a second, then close *)
  | Stalled_frame
      (** a prefix of a frame, then silence past the server's
          connection deadline — the slow-loris *)
  | Mutated_json  (** correctly framed, corrupted payload *)

let attack_name = function
  | Truncated_frame -> "truncated-frame"
  | Garbage_prefix -> "garbage-prefix"
  | Oversized_prefix -> "oversized-prefix"
  | Mid_batch_disconnect -> "mid-batch-disconnect"
  | Stalled_frame -> "stalled-frame"
  | Mutated_json -> "mutated-json"

type failure = {
  case_index : int;
  attack : attack;
  message : string;
}

type summary = {
  addr : string;
  cases : int;
  timeouts_seen : int;
      (** structured request.timeout responses the attacks provoked *)
  failures : failure list;
}

(* ---- raw socket plumbing ---- *)

(* The daemon may close on us mid-write — that is the expected outcome
   of several attacks, not an error. *)
let raw_send fd bytes =
  try
    let len = String.length bytes in
    let written = ref 0 in
    while !written < len do
      match Unix.write_substring fd bytes !written (len - !written) with
      | n -> written := !written + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* Read whatever the daemon answers within [timeout_s]; "" when it just
   closed or stayed silent. Attacks only use this to OBSERVE — the
   assertions live in the follow-up request. *)
let raw_drain ?(timeout_s = 2.0) fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0. then
      match Unix.select [ fd ] [] [] left with
      | [ _ ], _, _ ->
        (match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let raw_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- attack payloads ---- *)

let random_bytes rng n =
  String.init n (fun _ -> Char.chr (Exec.Prng.int rng 256))

(* A length prefix claiming more than the 64 MiB cap. *)
let oversized_header rng =
  let over = Serve.Transport.max_frame_bytes + 1 + Exec.Prng.int rng 1000 in
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((over lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((over lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((over lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (over land 0xff));
  Bytes.to_string b

let mutate_payload rng line =
  let b = Bytes.of_string line in
  let flips = 1 + Exec.Prng.int rng 8 in
  for _ = 1 to flips do
    let i = Exec.Prng.int rng (Bytes.length b) in
    (* Never inject '\n': under newline framing that would split the
       message instead of corrupting it. *)
    let c = Char.chr (32 + Exec.Prng.int rng 95) in
    Bytes.set b i c
  done;
  Bytes.to_string b

let pick_attack rng =
  Exec.Prng.weighted rng
    [
      (3, Truncated_frame);
      (3, Garbage_prefix);
      (2, Oversized_prefix);
      (3, Mid_batch_disconnect);
      (1, Stalled_frame);
      (3, Mutated_json);
    ]

(* One attack against one fresh connection. [request_line] is a valid
   request so the mutations start from realistic bytes. [stall_s] is
   how long the slow-loris holds its partial frame — callers set it
   just past the daemon's connection deadline. Returns the raw bytes
   the daemon answered, for timeout accounting. *)
let run_attack ~addr ~framing ~request_line ~stall_s rng attack =
  let well_formed = Serve.Transport.encode ~framing request_line in
  let fd = Serve.Transport.connect_socket addr in
  Fun.protect ~finally:(fun () -> raw_close fd)
    (fun () ->
      match attack with
      | Truncated_frame ->
        let n = String.length well_formed in
        let k = 1 + Exec.Prng.int rng (max 1 (n - 1)) in
        raw_send fd (String.sub well_formed 0 k);
        ""
      | Garbage_prefix ->
        raw_send fd (random_bytes rng (1 + Exec.Prng.int rng 512));
        raw_drain ~timeout_s:0.5 fd
      | Oversized_prefix ->
        (match framing with
        | Serve.Transport.Length_prefixed ->
          raw_send fd (oversized_header rng ^ random_bytes rng 32)
        | Serve.Transport.Newline ->
          (* The newline analogue: an over-long line that never
             terminates. Bounded well below the request-size cap; the
             connection deadline is what must end it. *)
          raw_send fd (String.make (4096 + Exec.Prng.int rng 4096) 'x'));
        raw_drain ~timeout_s:0.5 fd
      | Mid_batch_disconnect ->
        let second = Serve.Transport.encode ~framing request_line in
        let k = 1 + Exec.Prng.int rng (max 1 (String.length second - 1)) in
        raw_send fd (well_formed ^ String.sub second 0 k);
        (* Read our one answer (or not), then vanish mid-batch. *)
        raw_drain ~timeout_s:0.5 fd
      | Stalled_frame ->
        let k = 1 + Exec.Prng.int rng (max 1 (String.length well_formed / 2)) in
        raw_send fd (String.sub well_formed 0 k);
        Unix.sleepf stall_s;
        raw_drain ~timeout_s:1.0 fd
      | Mutated_json ->
        let mutated = mutate_payload rng request_line in
        raw_send fd (Serve.Transport.encode ~framing mutated);
        raw_drain ~timeout_s:1.0 fd)

(* ---- the campaign ---- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* The reference request every follow-up replays. Deterministic options
   (sr strategy, tiny benchmark) so the result is cacheable and the
   cache-hit bytes are the fixed point the whole campaign compares
   against. *)
let reference_request = {|{"id":"wire-ref","op":"compile","bench":"BV_10","strategy":"sr"}|}

let follow_up ~addr ~timeout_s =
  match Serve.Client.call ~addr ~timeout_s [ reference_request ] with
  | [ r ] -> Ok r
  | rs -> Error (Printf.sprintf "expected 1 response, got %d" (List.length rs))
  | exception Failure m -> Error m
  | exception Unix.Unix_error (e, _, _) ->
    Error ("connect/io: " ^ Unix.error_message e)

(* Every liveness check gives up after this many seconds. *)
let follow_up_timeout_s = 30.

(* [run ~seed ~cases ~addr ()] attacks a live daemon at [addr].
   [stall_s] must exceed the daemon's connection deadline for the
   slow-loris cell to provoke (and count) a request.timeout. *)
let run ?(stall_s = 0.6) ~seed ~cases ~addr () =
  let framing = Serve.Transport.framing_of_addr addr in
  let master = Exec.Prng.make seed in
  (* Prime: first call computes (cache miss), second replays the hit —
     THOSE bytes are the reference every follow-up must reproduce. *)
  let reference =
    match
      ( follow_up ~addr ~timeout_s:follow_up_timeout_s,
        follow_up ~addr ~timeout_s:follow_up_timeout_s )
    with
    | Ok _, Ok hit -> hit
    | Error m, _ | _, Error m ->
      failwith ("Wirefuzz: daemon unreachable while priming: " ^ m)
  in
  let timeouts = ref 0 in
  let failures = ref [] in
  for i = 0 to cases - 1 do
    let rng = Exec.Prng.split master i in
    let attack = pick_attack rng in
    let observed =
      match
        run_attack ~addr ~framing ~request_line:reference_request ~stall_s rng
          attack
      with
      | bytes -> bytes
      | exception Unix.Unix_error (e, _, _) ->
        (* The attack connection itself failing is fine (daemon may
           slam the door); the follow-up below is the real check. *)
        "attack-conn: " ^ Unix.error_message e
    in
    if contains ~sub:"request.timeout" observed then incr timeouts;
    Obs.Metrics.incr "fuzz.wire.cases";
    (match follow_up ~addr ~timeout_s:follow_up_timeout_s with
    | Ok r when String.equal r reference -> ()
    | Ok r ->
      Obs.Metrics.incr "fuzz.wire.failures";
      failures :=
        {
          case_index = i;
          attack;
          message =
            Printf.sprintf
              "follow-up diverged from reference\nreference: %s\ngot:       %s"
              reference r;
        }
        :: !failures
    | Error m ->
      Obs.Metrics.incr "fuzz.wire.failures";
      failures :=
        {
          case_index = i;
          attack;
          message = "daemon dead or hung after attack: " ^ m;
        }
        :: !failures)
  done;
  {
    addr = Serve.Transport.addr_to_string addr;
    cases;
    timeouts_seen = !timeouts;
    failures = List.rev !failures;
  }

(* [selftest ~transport ()] spins up an in-process daemon configured
   with an aggressive connection deadline, runs the campaign against
   it, and shuts it down through the protocol — the all-in-one entry
   the test suite and `caqr_cli chaos-serve` use. *)
let selftest ?(seed = 1) ?(cases = 50) ~transport () =
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "caqr-wire-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  let addr =
    match transport with
    | `Unix -> Serve.Transport.Unix tmp
    | `Tcp -> Serve.Transport.Tcp ("127.0.0.1", 0)
  in
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.addr;
      handler_domains = 2;
      conn_timeout_ms = Some 250;
      mem_capacity = 64;
    }
  in
  let server = Serve.Server.create config in
  let bound = Atomic.make None in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Server.run ~ready:(fun a -> Atomic.set bound (Some a)) server)
  in
  let rec await k =
    match Atomic.get bound with
    | Some a -> a
    | None when k > 0 ->
      Unix.sleepf 0.01;
      await (k - 1)
    | None -> failwith "Wirefuzz: daemon never became ready"
  in
  let addr = await 500 in
  let finish () =
    (try
       ignore
         (Serve.Client.call_retry ~addr ~timeout_s:10.
            [ {|{"op":"shutdown"}|} ])
     with Failure _ | Unix.Unix_error _ -> ());
    Domain.join daemon
  in
  match run ~stall_s:0.6 ~seed ~cases ~addr () with
  | summary ->
    finish ();
    summary
  | exception e ->
    finish ();
    raise e

let pp_summary ppf s =
  Format.fprintf ppf "wire chaos: %d cases against %s, %d timeout rejections@."
    s.cases s.addr s.timeouts_seen;
  List.iter
    (fun f ->
      Format.fprintf ppf "  case %d [%s]: %s@." f.case_index
        (attack_name f.attack) f.message)
    s.failures;
  Format.fprintf ppf "failures: %d@." (List.length s.failures)
