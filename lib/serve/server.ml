type config = {
  addr : Transport.addr;
  jobs : int;
  handler_domains : int;
  max_inflight : int;
  mem_capacity : int;
  cache_dir : string option;
  disk_budget_bytes : int option;
  default_deadline_ms : int option;
  max_deadline_ms : int option;
  max_batch : int;
  max_request_bytes : int;
  conn_timeout_ms : int option;
      (** a connection that completes no batch for this long — idle,
          trickling bytes, or refusing to drain our writes — gets a
          structured [request.timeout] and is closed. [None] = never. *)
  drain_deadline_ms : int;
      (** on SIGTERM/SIGINT, how long in-flight connections get to
          finish before the stop flag falls regardless. *)
}

let default_config =
  {
    addr = Transport.Unix "caqr.sock";
    jobs = 1;
    handler_domains = 4;
    max_inflight = 0;
    mem_capacity = 256;
    cache_dir = None;
    disk_budget_bytes = None;
    default_deadline_ms = None;
    max_deadline_ms = None;
    max_batch = 64;
    max_request_bytes = 10_000_000;
    conn_timeout_ms = None;
    drain_deadline_ms = 5_000;
  }

type t = {
  config : config;
  cache : Cache.t;
  gate : Guard.Gate.t;
  requests : int Atomic.t;
  started : float;
  stop : bool Atomic.t;  (** hard stop: the shutdown verb, or drain expiry *)
  drain_flag : bool Atomic.t;
      (** graceful: refuse new connections, finish in-flight ones *)
  active_conns : int Atomic.t;
  named : (string, Caqr.Pipeline.input * Quantum.Circuit.t * string) Hashtbl.t;
      (** registry name -> resolved input, circuit and tagged digest
          (see [resolve_named]); holds only names
          {!Benchmarks.Suite.find} resolves, so the registry bounds it. *)
  named_lock : Mutex.t;
}

let create config =
  Obs.Metrics.declare "serve.conn.timeout";
  Obs.Metrics.declare "serve.conn.errors";
  Obs.Metrics.declare "serve.socket.reclaimed";
  Obs.Metrics.declare_gauge "serve.draining";
  Obs.Metrics.declare_gauge "serve.conns.active";
  {
    config =
      {
        config with
        jobs = max 1 config.jobs;
        handler_domains = max 1 config.handler_domains;
        max_batch = max 1 config.max_batch;
        max_request_bytes = max 1024 config.max_request_bytes;
        drain_deadline_ms = max 0 config.drain_deadline_ms;
      };
    cache =
      Cache.create ~mem_capacity:config.mem_capacity ?dir:config.cache_dir
        ?disk_budget_bytes:config.disk_budget_bytes ();
    gate =
      Guard.Gate.create ~reject_metric:"serve.rejected.overload"
        ~limit:config.max_inflight ();
    requests = Atomic.make 0;
    started = Unix.gettimeofday ();
    stop = Atomic.make false;
    drain_flag = Atomic.make false;
    active_conns = Atomic.make 0;
    named = Hashtbl.create 32;
    named_lock = Mutex.create ();
  }

let cache t = t.cache
let gate t = t.gate

(* Exposed so tests (and embedders) can drive the graceful-shutdown
   path without delivering a real signal to their own process. *)
let drain t =
  Atomic.set t.drain_flag true;
  Obs.Metrics.set_gauge "serve.draining" 1

let draining t = Atomic.get t.drain_flag

let usage_error ~site fmt =
  Printf.ksprintf
    (fun detail -> Guard.Error.v ~stage:"serve.request" ~site detail)
    fmt

(* ---- input resolution ---- *)

(* Resolve a registry name once per server: [Suite.find] rebuilds
   Table 1 to find one name (or builds a large circuit), and digesting
   the circuit is O(gates), too much to repeat on every cache hit. The
   entry is built outside the lock and the first insert wins, so every
   request sees one value. A plain table, not a [Lazy.t]: forcing one
   lazy from two pool domains at once raises
   [CamlinternalLazy.Undefined]. *)
let resolve_named t name =
  let find () = Hashtbl.find_opt t.named name in
  match Mutex.protect t.named_lock find with
  | Some _ as hit -> hit
  | None ->
    (match Benchmarks.Suite.find name with
     | exception Not_found -> None
     | e ->
       (* A commutable entry and a hypothetical regular entry with the
          same emitted circuit are different compile problems — tag the
          digest with the input kind. *)
       let tag =
         match e.Benchmarks.Suite.kind with
         | Benchmarks.Suite.Regular -> "regular:"
         | Benchmarks.Suite.Commutable _ -> "commutable:"
       in
       let resolved =
         ( Benchmarks.Suite.input e,
           e.Benchmarks.Suite.circuit,
           tag ^ Quantum.Circuit.digest e.Benchmarks.Suite.circuit )
       in
       Mutex.protect t.named_lock (fun () ->
           if not (Hashtbl.mem t.named name) then
             Hashtbl.add t.named name resolved;
           find ()))

(* A request names its circuit either by benchmark-registry name or as
   inline QASM-3. Returns the display name, the pipeline input, the
   circuit whose width picks the device, and the canonical digest that
   keys the cache. Inline QASM is content-addressed, so it parses and
   digests on every request. *)
let resolve_input t (req : Protocol.request) =
  match (req.bench, req.qasm3) with
  | Some _, Some _ ->
    Error (usage_error ~site:"request.input" "give \"bench\" or \"qasm3\", not both")
  | None, None ->
    Error (usage_error ~site:"request.input" "missing \"bench\" or \"qasm3\"")
  | Some name, None ->
    (match resolve_named t name with
     | Some (input, circuit, digest) -> Ok (name, input, circuit, digest)
     | None ->
       Error (usage_error ~site:"request.input" "unknown benchmark %S" name))
  | None, Some src ->
    (match Quantum.Qasm_parser.parse src with
     | Ok c when c.Quantum.Circuit.num_qubits > Hardware.Device.memo_max_width ->
       (* Refused before any device (and its distance table) is built. *)
       Error
         (usage_error ~site:"request.input"
            "inline program declares %d qubits (limit %d)" c.Quantum.Circuit.num_qubits
            Hardware.Device.memo_max_width)
     | Ok c ->
       Ok ("qasm3", Caqr.Pipeline.Regular c, c, "regular:" ^ Quantum.Circuit.digest c)
     | Error e -> Error e)

(* ---- per-request options, fingerprint, deadline ---- *)

let options_of (req : Protocol.request) =
  {
    Caqr.Pipeline.verify =
      (match req.op with Protocol.Verify -> Some req.level | _ -> None);
    seed = req.seed;
    fallback = req.fallback;
    (* Batch-level parallelism owns the domains; inner compiles stay
       sequential, exactly like Pipeline.compile_all. *)
    jobs = 1;
  }

let fingerprint options (req : Protocol.request) =
  Caqr.Pipeline.options_fingerprint options
  ^ Printf.sprintf ";strategy=%s;qasm=%b"
      (Caqr.Pipeline.strategy_name req.strategy)
      req.emit_qasm
  ^
  match req.op with
  | Protocol.Simulate -> Printf.sprintf ";shots=%d;sim_seed=%d" req.shots req.seed
  | _ -> ""

(* Admission control: the request's deadline is clamped to the server's
   cap; requests without one get the server default. *)
let effective_deadline t (req : Protocol.request) =
  let requested =
    match req.deadline_ms with
    | Some _ as d -> d
    | None -> t.config.default_deadline_ms
  in
  match (requested, t.config.max_deadline_ms) with
  | Some d, Some cap -> Some (min d cap)
  | None, Some cap -> Some cap
  | d, None -> d

(* ---- result bodies ---- *)

let result_of_report ~name ~emit_qasm (r : Caqr.Pipeline.report) =
  let s = r.Caqr.Pipeline.stats in
  let base =
    [
      ("benchmark", Json.String name);
      ( "strategy",
        Json.String (Caqr.Pipeline.strategy_name r.Caqr.Pipeline.strategy) );
      ("qubits", Json.Int s.Transpiler.Transpile.qubits_used);
      ("depth", Json.Int s.Transpiler.Transpile.depth);
      ("duration_dt", Json.Int s.Transpiler.Transpile.duration_dt);
      ("swaps", Json.Int s.Transpiler.Transpile.swaps);
      ("two_q", Json.Int s.Transpiler.Transpile.two_q);
      ("gate_count", Json.Int s.Transpiler.Transpile.gate_count);
      ("reuse_pairs", Json.Int r.Caqr.Pipeline.reuse_pairs);
      ("quality", Json.String (Caqr.Quality.name r.Caqr.Pipeline.quality));
    ]
  in
  let anytime =
    match r.Caqr.Pipeline.quality with
    | Caqr.Quality.Exact -> []
    | Caqr.Quality.Anytime { steps_done; frontier_left } ->
      [
        ( "anytime",
          Json.Obj
            [
              ("steps_done", Json.Int steps_done);
              ("frontier_left", Json.Int frontier_left);
            ] );
      ]
  in
  let degraded =
    match r.Caqr.Pipeline.degraded with
    | [] -> []
    | ds ->
      [
        ( "degraded",
          Json.List
            (List.map
               (fun (d : Caqr.Pipeline.degraded) ->
                 Json.Obj
                   [
                     ( "from",
                       Json.String
                         (Caqr.Pipeline.strategy_name
                            d.Caqr.Pipeline.from_strategy) );
                     ( "error",
                       Json.String
                         (Guard.Error.to_string d.Caqr.Pipeline.error) );
                   ])
               ds) );
      ]
  in
  let verdict =
    match r.Caqr.Pipeline.verification with
    | None -> []
    | Some v -> [ ("verdict", Json.String (Verify.Verdict.to_string v)) ]
  in
  let qasm =
    if emit_qasm then
      [
        ( "qasm3",
          Json.String
            (Quantum.Qasm.to_string
               (fst (Quantum.Circuit.compact_qubits r.Caqr.Pipeline.physical)))
        );
      ]
    else []
  in
  Json.Obj (base @ anytime @ degraded @ verdict @ qasm)

(* Compute one compile/verify/simulate result. Runs under the request's
   scoped budget; the caller wraps with Guard.Error.protect. Returns the
   result object and whether it may be cached (degraded and anytime
   reports are deadline-dependent, so they are not). *)
let compute ~name ~input (req : Protocol.request) options device =
  let r = Caqr.Pipeline.compile ~options device req.strategy input in
  let body = result_of_report ~name ~emit_qasm:req.emit_qasm r in
  let body =
    match req.op with
    | Protocol.Simulate ->
      let counts =
        Sim.Executor.run ~jobs:1 ~seed:req.seed ~shots:req.shots
          r.Caqr.Pipeline.physical
      in
      let outcomes =
        List.map
          (fun (outcome, count) ->
            Json.List [ Json.Int outcome; Json.Int count ])
          (Sim.Counts.to_list counts)
      in
      (match body with
       | Json.Obj fields ->
         Json.Obj
           (fields
           @ [
               ("shots", Json.Int req.shots);
               ("sim_seed", Json.Int req.seed);
               ("counts", Json.List outcomes);
             ])
       | j -> j)
    | _ -> body
  in
  ( body,
    r.Caqr.Pipeline.degraded = []
    && Caqr.Quality.is_exact r.Caqr.Pipeline.quality )

let ok_fields (req : Protocol.request) ~cache_state ~key ~result =
  [
    ("ok", Json.Bool true);
    ("op", Json.String (Protocol.op_name req.op));
    ("cache", Json.String cache_state);
    ("key", Json.String key);
    ("result", Json.Raw result);
  ]

let handle_work t (req : Protocol.request) =
  match resolve_input t req with
  | Error e -> Protocol.error_response ~id:req.id e
  | Ok (name, input, circuit, digest) ->
    let options = options_of req in
    let key =
      Cache.key ~op:(Protocol.op_name req.op) ~digest
        ~fingerprint:(fingerprint options req)
    in
    let cached = if req.no_cache then None else Cache.find t.cache key in
    (match cached with
     | Some result ->
       Protocol.response ~id:req.id
         (ok_fields req ~cache_state:"hit" ~key ~result)
     | None ->
       let device =
         Hardware.Device.heavy_hex_for circuit.Quantum.Circuit.num_qubits
       in
       let deadline_ms = effective_deadline t req in
       (match
          Guard.Error.protect ~stage:"serve.request" (fun () ->
              (* The scoped budget covers compile, verification and
                 simulation; Exec.Pool re-installs it in any domain this
                 request fans out to. *)
              Guard.Budget.scoped (Guard.Budget.make ?ms:deadline_ms ())
                (fun () -> compute ~name ~input req options device))
        with
        | Ok (body, cacheable) ->
          let result = Json.to_string body in
          if cacheable && not req.no_cache then Cache.store t.cache key result;
          let state = if req.no_cache then "none" else "miss" in
          Protocol.response ~id:req.id
            (ok_fields req ~cache_state:state ~key ~result)
        | Error e ->
          Obs.Metrics.incr "serve.errors";
          Protocol.error_response ~id:req.id e))

let stats_response t (req : Protocol.request) =
  let result =
    Json.Obj
      [
        ("engine", Json.String Caqr.Version.engine);
        ("proto", Json.Int Protocol.version);
        ("addr", Json.String (Transport.addr_to_string t.config.addr));
        ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
        ("requests", Json.Int (Atomic.get t.requests));
        ("inflight", Json.Int (Guard.Gate.inflight t.gate));
        ("max_inflight", Json.Int (Guard.Gate.limit t.gate));
        ( "cache",
          Json.Obj
            (List.map (fun (k, v) -> (k, Json.Int v)) (Cache.stats t.cache)) );
        ("metrics", Json.Raw (Obs.Metrics.to_json (Obs.Metrics.snapshot ())));
      ]
  in
  Protocol.response ~id:req.id
    [
      ("ok", Json.Bool true);
      ("op", Json.String "stats");
      ("result", Json.Raw (Json.to_string result));
    ]

(* Liveness for probes and drain orchestration: like stats it bypasses
   the admission gate (an overloaded daemon must still say it is alive,
   a draining one that it is leaving), but it is cheap enough — no
   cache stats, no metrics dump — to poll every second. *)
let health_response t (req : Protocol.request) =
  let status = if draining t then "draining" else "serving" in
  let result =
    Json.Obj
      [
        ("status", Json.String status);
        ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
        ("requests", Json.Int (Atomic.get t.requests));
        ("inflight", Json.Int (Guard.Gate.inflight t.gate));
        ("conns_active", Json.Int (Atomic.get t.active_conns));
        ("crew_respawns", Json.Int (Obs.Metrics.count "exec.crew.respawns"));
      ]
  in
  Protocol.response ~id:req.id
    [
      ("ok", Json.Bool true);
      ("op", Json.String "health");
      ("result", Json.Raw (Json.to_string result));
    ]

let overloaded_error t =
  Guard.Error.v ~recoverable:true ~stage:"serve.admission"
    ~site:"request.overload"
    (Printf.sprintf "server at max_inflight=%d, retry later"
       (Guard.Gate.limit t.gate))

let handle_line t line =
  Obs.Metrics.incr "serve.requests";
  Atomic.incr t.requests;
  if String.length line > t.config.max_request_bytes then
    ( Protocol.error_response ~id:Json.Null
        (Guard.Error.v ~stage:"serve.admission" ~site:"request.size"
           (Printf.sprintf "request line exceeds %d bytes"
              t.config.max_request_bytes)),
      false )
  else
    match Protocol.of_line line with
    | Error msg ->
      ( Protocol.error_response ~id:Json.Null
          (Guard.Error.v ~stage:"serve.protocol" ~site:"request.parse" msg),
        false )
    | Ok req when req.Protocol.proto > Protocol.version ->
      (* A client from the future: fail loudly (it can downgrade its
         request) rather than answer with semantics it may mis-parse. *)
      ( Protocol.error_response ~id:req.Protocol.id
          (Guard.Error.v ~stage:"serve.protocol" ~site:"request.version"
             (Printf.sprintf "request speaks proto %d, this server speaks %d"
                req.Protocol.proto Protocol.version)),
        false )
    | Ok req ->
      Obs.Metrics.incr ("serve.op." ^ Protocol.op_name req.op);
      (match req.op with
       | Protocol.Shutdown ->
         ( Protocol.response ~id:req.id
             [
               ("ok", Json.Bool true);
               ("op", Json.String "shutdown");
               ("result", Json.Obj [ ("stopping", Json.Bool true) ]);
             ],
           true )
       | Protocol.Stats -> (stats_response t req, false)
       | Protocol.Health -> (health_response t req, false)
       | Protocol.Compile | Protocol.Verify | Protocol.Simulate ->
         (* Work verbs pass the admission gate; stats and shutdown stay
            answerable under overload so operators can see why and stop
            the daemon. Rejection is immediate — load sheds instead of
            queueing unboundedly. *)
         (match Guard.Gate.with_slot t.gate (fun () -> handle_work t req) with
          | Some response -> (response, false)
          | None -> (Protocol.error_response ~id:req.id (overloaded_error t), false)))

(* handle_line never raises and touches only domain-safe state (cache
   mutex, gate atomic, metrics), so a pipelined batch fans out as-is. *)
let handle_batch t lines =
  let n = List.length lines in
  if n = 0 then ([], false)
  else begin
    Obs.Metrics.incr "serve.batches";
    if n > 1 then Obs.Metrics.incr ~by:n "serve.batched.requests";
    let results =
      if n = 1 then List.map (handle_line t) lines
      else Exec.Pool.map ~jobs:t.config.jobs (handle_line t) lines
    in
    (List.map fst results, List.exists snd results)
  end

(* ---- the serving loop ---- *)

(* How often blocked handler domains and the acceptor wake up to check
   the stop flag. Bounds shutdown latency; invisible otherwise. *)
let poll_interval_s = 0.25
let accept_interval_s = 0.05

let conn_timeout_s t =
  Option.map (fun ms -> float_of_int ms /. 1000.) t.config.conn_timeout_ms

let conn_timeout_error t conn =
  Guard.Error.v ~recoverable:true ~stage:"serve.conn" ~site:"request.timeout"
    (Printf.sprintf
       "no complete request within %d ms (%d unframed bytes pending); \
        closing connection"
       (Option.value ~default:0 t.config.conn_timeout_ms)
       (Transport.pending_bytes conn))

(* One connection, owned by one handler domain. recv_batch waits for a
   request, then drains whatever the client already pipelined — capped
   at max_batch — and that run is the batch handed to the pool. The
   poll interval bounds how long a blocked handler takes to notice the
   stop flag; the connection deadline is separate and absolute, clocked
   from the last COMPLETED batch so a peer trickling bytes (or half a
   length prefix) cannot reset it. While draining, the connection gets
   one short poll to pick up anything already pipelined, then closes. *)
let serve_conn t conn =
  Obs.Metrics.incr "serve.connections";
  let timeout = conn_timeout_s t in
  let last_done = ref (Unix.gettimeofday ()) in
  let deadline_left () =
    match timeout with
    | None -> infinity
    | Some dt -> !last_done +. dt -. Unix.gettimeofday ()
  in
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      let is_draining = draining t in
      let poll =
        if is_draining then 0.05
        else Float.min poll_interval_s (Float.max 0.001 (deadline_left ()))
      in
      match
        Transport.recv_batch ~timeout_s:poll ~max:t.config.max_batch conn
      with
      | Transport.Eof -> ()
      | Transport.Timeout ->
        if is_draining then () (* idle under drain: close *)
        else if deadline_left () <= 0. then begin
          (* Slow-loris verdict: tell the peer why, then hang up. The
             send itself runs under the same deadline discipline. *)
          Obs.Metrics.incr "serve.conn.timeout";
          try
            Transport.send ?timeout_s:timeout conn
              [ Protocol.error_response ~id:Json.Null (conn_timeout_error t conn) ]
          with Guard.Error.Guard_error _ | Unix.Unix_error _ -> ()
        end
        else loop ()
      | Transport.Msgs batch ->
        let responses, stop' = handle_batch t batch in
        Transport.send ?timeout_s:timeout conn responses;
        last_done := Unix.gettimeofday ();
        if stop' then Atomic.set t.stop true else loop ()
    end
  in
  (* Containment boundary: a hostile peer must cost at most its own
     connection. Frame violations, injected wire faults, and write
     stalls surface here as structured errors; anything that still
     escapes kills the handler domain and is the supervised crew's
     problem (respawn), not the daemon's. *)
  try loop () with
  | Guard.Error.Guard_error e ->
    Obs.Metrics.incr "serve.conn.errors";
    (try
       Transport.send ?timeout_s:timeout conn
         [ Protocol.error_response ~id:Json.Null e ]
     with Guard.Error.Guard_error _ | Unix.Unix_error _ | Invalid_argument _ ->
       ())
  | Unix.Unix_error _ -> Obs.Metrics.incr "serve.conn.errors"

let install_drain_signals t =
  let on_signal _ = drain t in
  let install s =
    try Some (s, Stdlib.Sys.signal s (Stdlib.Sys.Signal_handle on_signal))
    with Invalid_argument _ | Stdlib.Sys_error _ -> None
  in
  List.filter_map install [ Stdlib.Sys.sigterm; Stdlib.Sys.sigint ]

let restore_signals saved =
  List.iter
    (fun (s, old) ->
      try Stdlib.Sys.set_signal s old
      with Invalid_argument _ | Stdlib.Sys_error _ -> ())
    saved

let run ?ready t =
  let listener = Transport.bind t.config.addr in
  (* Handler domains each own whole connections; requests inside one
     connection still batch over Exec.Pool. Every mutable thing a
     handler touches — cache, gate, metrics, the stop flag — is
     domain-safe, so connections are independent up to cache timing,
     and responses stay content-addressed either way. *)
  let crew =
    Exec.Crew.create ~domains:t.config.handler_domains (fun conn ->
        Atomic.incr t.active_conns;
        Obs.Metrics.set_gauge "serve.conns.active" (Atomic.get t.active_conns);
        Fun.protect
          ~finally:(fun () ->
            Transport.close conn;
            Atomic.decr t.active_conns;
            Obs.Metrics.set_gauge "serve.conns.active"
              (Atomic.get t.active_conns))
          (fun () -> serve_conn t conn))
  in
  let saved_signals = install_drain_signals t in
  (match ready with
  | Some f -> f (Transport.bound_addr listener)
  | None -> ());
  Fun.protect
    ~finally:(fun () ->
      restore_signals saved_signals;
      Exec.Crew.join crew;
      Transport.close_listener listener;
      (* Always persist the disk tier's LRU order on the way out: both
         the shutdown verb and a drained SIGTERM are clean exits. *)
      Cache.flush t.cache;
      Obs.Metrics.set_gauge "serve.draining" 0)
    (fun () ->
      while not (Atomic.get t.stop || draining t) do
        match Transport.accept ~timeout_s:accept_interval_s listener with
        | Some conn ->
          if not (Exec.Crew.submit crew conn) then Transport.close conn
        | None -> ()
      done;
      if draining t && not (Atomic.get t.stop) then begin
        (* Drain: stop accepting at once (close the listener so peers
           get ECONNREFUSED, not a hang), let in-flight connections
           finish under the drain deadline, then drop the stop flag —
           which ends any connection that outstayed its welcome. *)
        Transport.close_listener listener;
        let deadline =
          Unix.gettimeofday ()
          +. (float_of_int t.config.drain_deadline_ms /. 1000.)
        in
        while
          Atomic.get t.active_conns > 0
          && (not (Atomic.get t.stop))
          && Unix.gettimeofday () < deadline
        do
          Unix.sleepf 0.02
        done;
        Atomic.set t.stop true
      end)
