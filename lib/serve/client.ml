let retriable = function
  (* ECONNREFUSED/ENOENT: daemon still starting (or socket not linked
     yet). ECONNRESET/EPIPE: the listener dropped us mid-handshake —
     e.g. a backlog overflow or a daemon restarting under an
     orchestrator. All four mean "nothing was processed", which is what
     makes the retry safe. *)
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EPIPE -> true
  | _ -> false

let converse ?timeout_s ~n conn lines =
  Fun.protect
    ~finally:(fun () -> Transport.close conn)
    (fun () ->
      (* One send so the server sees the whole run as one pipelined
         batch. *)
      Transport.send ?timeout_s conn lines;
      let rec collect acc k =
        if k = 0 then List.rev acc
        else
          match Transport.recv_batch ?timeout_s ~max:k conn with
          | Transport.Msgs rs ->
            collect (List.rev_append rs acc) (k - List.length rs)
          | Transport.Eof ->
            failwith
              (Printf.sprintf
                 "Serve.Client: connection closed after %d of %d responses"
                 (n - k) n)
          | Transport.Timeout ->
            failwith
              (Printf.sprintf
                 "Serve.Client: timed out after %d of %d responses" (n - k) n)
      in
      collect [] n)

let call ~addr ?timeout_s lines =
  if lines = [] then []
  else converse ?timeout_s ~n:(List.length lines) (Transport.connect addr) lines

(* Equal-jitter exponential backoff: attempt [k] sleeps between half
   and all of [min cap_s (base_s * 2^k)]. The lower bound keeps total
   patience predictable (a daemon that needs two seconds to start gets
   them); the jittered upper half decorrelates a thundering herd of
   clients all retrying the same restarted daemon. Pure and seeded, so
   a test (or [--seed]) gets the same schedule every run. *)
let base_s = 0.02
let cap_s = 0.3
let max_attempts = 12

let backoff_delays ~seed n =
  let rng = Exec.Prng.make seed in
  List.init (max 0 n) (fun k ->
      let ceiling = Float.min cap_s (base_s *. (2. ** float_of_int k)) in
      (ceiling /. 2.) +. Exec.Prng.float rng (ceiling /. 2.))

(* Retry covers ONLY the connect phase. Once any bytes have gone out,
   a failure must surface: re-sending a batch that may have been
   half-processed is not idempotent (anytime results are never cached,
   so a replay can legitimately answer differently). *)
let call_retry ~addr ?(seed = 1) ?timeout_s lines =
  if lines = [] then []
  else begin
    let delays = backoff_delays ~seed (max_attempts - 1) in
    let rec connect = function
      | [] -> Transport.connect addr
      | d :: rest ->
        (match Transport.connect addr with
        | conn -> conn
        | exception Unix.Unix_error (e, _, _) when retriable e ->
          Unix.sleepf d;
          connect rest)
    in
    converse ?timeout_s ~n:(List.length lines) (connect delays) lines
  end
