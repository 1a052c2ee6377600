(* Open-loop service traffic: one generator sends a seeded request
   stream over TCP to an in-process daemon (Serve.Server) whose cache
   is cold but for the slowest Table-1 cells, primed in set-up, and
   times every request from when it was due. *)

open Util
module Json = Serve.Json

(* ---- the workload definition, fixed once ---- *)

(* A closed loop (one request in flight) answered 290 requests/s of
   this mix on a 2-core host. At half that, 145/s, the server is busy a
   third of the time and the median request sits at the queueing knee:
   over ten seeds its p50 ranged 0.6-3.1 ms. At 45/s the median is a
   cache hit's round trip. A 20 s run then has 900 requests, so the
   tail is p90. *)
let offered_rps = 45.

(* One connection, owned by one handler domain. With two of each, the
   two domains' minor collections stall each other on 2 cores and the
   p99 swung between 190 and 330 ms from seed to seed at 50/s. *)
let connections = 1
let handler_domains = 1
let mem_capacity = 4096
let inline_share = 0.15
let verify_sim_share = 0.10
let zipf_exponent = 1.0
let inline_qubits = (20, 40)
let inline_strategies = [| ("cone", Caqr.Pipeline.Cone); ("gidnet", Caqr.Pipeline.Gidnet) |]
let small_qubits = 10
let sim_shots = 256

(* Cold compiles by the QS and SR engines from 9 qubits up take 25-155
   ms on the daemon (2-core host); every other Table-1 cell takes under
   7 ms. Those 32 first sights were most of the server's busy time, and
   the tail sat on the edge of whichever requests queued behind them:
   over ten seeds it spread by 26-68%. They are answered through the
   daemon during set-up, so set-up carries their cost, and they stay in
   the mix as memory hits. *)
let primed ((e : Benchmarks.Suite.entry), (_, strategy)) =
  e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits >= 9
  &&
  match strategy with
  | Caqr.Pipeline.Baseline | Caqr.Pipeline.Cone | Caqr.Pipeline.Gidnet -> false
  | _ -> true

let server_config addr =
  {
    Serve.Server.default_config with
    addr;
    jobs = 1;
    handler_domains;
    mem_capacity;
  }

(* ---- the request stream ---- *)

type kind = Compile | Verify | Simulate | Inline

type req = {
  line : string;
  kind : kind;
  circuit : Quantum.Circuit.t;  (** what the daemon will compile *)
  input : Caqr.Pipeline.input;
  strategy : string * Caqr.Pipeline.strategy;
  seed : int;
  source : string option;  (** the inline QASM-3 payload *)
}

let request_line ~id fields = Json.to_string (Json.Obj (("id", Json.Int id) :: fields))

let zipf rng n =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** zipf_exponent)) in
  let cum = Array.make n 0. in
  Array.iteri (fun i x -> cum.(i) <- x +. if i = 0 then 0. else cum.(i - 1)) w;
  fun () ->
    let u = Exec.Prng.float rng cum.(n - 1) in
    let rec find i = if i >= n - 1 || u < cum.(i) then i else find (i + 1) in
    find 0

let table1_cells ~max_qubits =
  Array.of_list
    (List.concat_map
       (fun (e : Benchmarks.Suite.entry) ->
         if e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits > max_qubits
         then []
         else List.map (fun s -> (e, s)) Caqr.Pipeline.all_strategies)
       (Benchmarks.Suite.table1 ()))

let primed_cells () = List.filter primed (Array.to_list (table1_cells ~max_qubits:max_int))

let config_line () =
  Printf.sprintf
    "offered_rate=%.1f/s connections=%d handler_domains=%d server_jobs=1 \
     mem_capacity=%d disk_tier=none mix=compile %.0f%% / verify+simulate \
     %.0f%% / inline-qasm3 %.0f%% zipf_s=%.1f sim_shots=%d \
     primed_in_setup=%d cells"
    offered_rps connections handler_domains mem_capacity
    (100. *. (1. -. inline_share -. verify_sim_share))
    (100. *. verify_sim_share) (100. *. inline_share) zipf_exponent sim_shots
    (List.length (primed_cells ()))

let named ~id kind (e, ((sname, _) as strategy)) seed =
  let name = e.Benchmarks.Suite.name in
  let op, extra =
    match kind with
    | Verify -> ("verify", [ ("level", Json.String "auto"); ("seed", Json.Int seed) ])
    | Simulate ->
      ("simulate", [ ("shots", Json.Int sim_shots); ("seed", Json.Int seed) ])
    | Compile | Inline -> ("compile", [])
  in
  {
    line =
      request_line ~id
        ([
           ("op", Json.String op);
           ("bench", Json.String name);
           ("strategy", Json.String sname);
         ]
        @ extra);
    kind;
    circuit = e.Benchmarks.Suite.circuit;
    input = Compile_loop.input_of e;
    strategy;
    seed;
    source = None;
  }

let compiles strategy c =
  match
    Caqr.Pipeline.compile
      ~options:{ Caqr.Pipeline.default with seed = 1 }
      (Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits)
      strategy (Caqr.Pipeline.Regular c)
  with
  | _ -> true
  | exception _ -> false

(* A fresh random dynamic circuit of a stratified width, compiled by the
   fast engines. Circuits whose compile the library rejects (the
   router's swap budget trips on a few random circuits) are redrawn
   here, so no request of the stream fails by construction. *)
let inline ~id ~digests rng k =
  let lo, hi = inline_qubits in
  let n = lo + (k mod (hi - lo + 1)) in
  let ((sname, strategy) as st) = inline_strategies.(k mod Array.length inline_strategies) in
  let rec draw tries =
    if tries = 0 then failwith "serve-mix: no compilable inline circuit drawn";
    let src =
      Quantum.Qasm.to_string
        (Benchmarks.Large.rand_dyn ~seed:(Exec.Prng.int rng 1_000_000_000) n)
    in
    match Quantum.Qasm_parser.parse src with
    | Ok c
      when (not (Hashtbl.mem digests (Quantum.Circuit.digest c)))
           && compiles strategy c ->
      Hashtbl.add digests (Quantum.Circuit.digest c) ();
      (src, c)
    | _ -> draw (tries - 1)
  in
  let src, c = draw 50 in
  {
    line =
      request_line ~id
        [
          ("op", Json.String "compile");
          ("qasm3", Json.String src);
          ("strategy", Json.String sname);
        ];
    kind = Inline;
    circuit = c;
    input = Caqr.Pipeline.Regular c;
    strategy = st;
    seed = 1;
    source = Some src;
  }

(* Repeats of an item start this long after its first sight, once its
   first answer is in the cache: a concurrent duplicate of a cold miss
   would compute twice (the daemon has no in-flight de-duplication),
   and which items that hits would depend on the seed's ranking. *)
let answered_after = 1.0

let first_sight_stride = 37

(* Verify and simulate requests name this many distinct (cell, kind)
   items per run, so their cold misses are the same work for every
   seed. *)
let vs_distinct = 24

(* [k] requests for [items] over [seconds]. The first [sights] items in
   a fixed stride order are first requested at evenly spaced times, so
   the cold cache's misses neither bunch nor change from seed to seed.
   The rest arrive at the times [times] draws and name an item of a
   seeded Zipf ranking whose first answer is in by then, so they are
   memory hits; [hot] items are answered from the start, and the item
   sighted at time 0 stands in while no other is. *)
let stream ~seconds ~rng ~times ~hot ~sights items k =
  let order =
    Array.of_list
      (List.filter (fun j -> not (hot items.(j))) (List.init (Array.length items) Fun.id))
  in
  let m = Array.length order in
  if m mod first_sight_stride = 0 then invalid_arg "serve-mix: stride shares a factor";
  let sights = min k (min sights m) in
  let sighted = Array.map (fun x -> if hot x then neg_infinity else infinity) items in
  let firsts =
    List.init sights (fun p ->
        let j = order.(p * first_sight_stride mod m) in
        let t = float_of_int p *. seconds /. float_of_int sights in
        sighted.(j) <- t;
        (t, items.(j)))
  in
  let rank = permutation rng (Array.length items) in
  let z = zipf rng (Array.length items) in
  let rec seen t tries =
    let j = rank.(z ()) in
    if sighted.(j) +. answered_after <= t then j
    else if tries = 0 then order.(0)
    else seen t (tries - 1)
  in
  firsts @ List.map (fun t -> (t, items.(seen t 1000))) (times (k - sights))

(* The whole stream from the seed: Table-1 compiles, verify and
   simulate on Table-1 cells of at most [small_qubits] qubits, each
   with its own seeded verifier or simulator seed, and fresh inline
   circuits. Arrival times are uniform (a Poisson process conditioned
   on its count) for repeat compiles, and stratified for verify,
   simulate and inline requests. Verify and simulate skip primed cells,
   since their own cache keys would compile a primed cell cold again. *)
let generate ~seed ~seconds =
  let root = Exec.Prng.make seed in
  let rng k = Exec.Prng.split root k in
  let n = max 4 (int_of_float (Float.round (offered_rps *. seconds))) in
  let n_inline = int_of_float (Float.round (inline_share *. float_of_int n)) in
  let n_vs = int_of_float (Float.round (verify_sim_share *. float_of_int n)) in
  let n_compile = n - n_inline - n_vs in
  let r_t = rng 6 in
  let times k = List.init k (fun _ -> Exec.Prng.float r_t seconds) in
  let jittered k =
    List.init k (fun i ->
        (float_of_int i +. Exec.Prng.float r_t 1.) *. seconds /. float_of_int k)
  in
  let compiles =
    stream ~seconds ~rng:(rng 1) ~times
      ~hot:(fun (_, cell, _) -> primed cell)
      ~sights:max_int
      (Array.map (fun cell -> (Compile, cell, 1)) (table1_cells ~max_qubits:max_int))
      n_compile
  in
  let r_vs = rng 3 in
  let vs_items =
    Array.of_list
      (List.concat_map
         (fun cell ->
           if primed cell then []
           else
             List.map
               (fun kind -> (kind, cell, 1 + Exec.Prng.int r_vs 1000))
               [ Verify; Simulate ])
         (Array.to_list (table1_cells ~max_qubits:small_qubits)))
  in
  let vs =
    stream ~seconds ~rng:(rng 2) ~times:jittered
      ~hot:(fun _ -> false)
      ~sights:vs_distinct vs_items n_vs
  in
  let plan =
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (List.map (fun (t, x) -> (t, `Named x)) (compiles @ vs)
      @ List.mapi (fun k t -> (t, `Inline k)) (jittered n_inline))
  in
  let digests = Hashtbl.create 64 in
  let r_inline = rng 4 in
  let reqs =
    Array.of_list
      (List.mapi
         (fun id (_, p) ->
           match p with
           | `Named (kind, cell, s) -> named ~id kind cell s
           | `Inline k -> inline ~id ~digests r_inline k)
         plan)
  in
  (reqs, Array.of_list (List.map fst plan))

(* ---- the daemon and the generator ---- *)

type live = {
  server : Serve.Server.t;
  domain : unit Domain.t;
  fd : Unix.file_descr;  (** the generator's one connection *)
}

let frames buf =
  let s = Buffer.contents buf in
  let len = String.length s in
  let rec go off acc =
    if len - off < 4 then (off, List.rev acc)
    else
      let size =
        (Char.code s.[off] lsl 24)
        lor (Char.code s.[off + 1] lsl 16)
        lor (Char.code s.[off + 2] lsl 8)
        lor Char.code s.[off + 3]
      in
      if len - off - 4 < size then (off, List.rev acc)
      else go (off + 4 + size) (String.sub s (off + 4) size :: acc)
  in
  let off, msgs = go 0 [] in
  Buffer.clear buf;
  Buffer.add_substring buf s off (len - off);
  msgs

let send fd line =
  let msg =
    Serve.Transport.encode ~framing:Serve.Transport.Length_prefixed line
  in
  ignore (Unix.write_substring fd msg 0 (String.length msg))

let select fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Blocking request/response on one connection (set-up only). *)
let roundtrip fd line =
  send fd line;
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = now () +. 10. in
  let rec wait () =
    if now () > deadline then failwith "serve-mix: daemon did not answer";
    match frames buf with
    | msg :: _ -> msg
    | [] ->
      if select [ fd ] 0.1 <> [] then begin
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k = 0 then failwith "serve-mix: daemon closed the connection";
        Buffer.add_subbytes buf chunk 0 k
      end;
      wait ()
  in
  wait ()

(* The primed cells' compile requests, answered before the timed phase
   on the live daemon and on the reference server alike. *)
let priming_lines () =
  List.mapi (fun k c -> (named ~id:(-1 - k) Compile c 1).line) (primed_cells ())

let prime handle =
  List.iter
    (fun line ->
      match Json.parse (handle line) with
      | Ok j when Json.bool_field "ok" j = Some true -> ()
      | _ -> failwith "serve-mix: a priming compile failed")
    (priming_lines ())

let start () =
  let server =
    Serve.Server.create
      (server_config (Serve.Transport.Tcp ("127.0.0.1", 0)))
  in
  let bound = Atomic.make None in
  let domain =
    Domain.spawn (fun () ->
        Serve.Server.run ~ready:(fun a -> Atomic.set bound (Some a)) server)
  in
  let deadline = now () +. 10. in
  while Atomic.get bound = None && now () < deadline do
    Unix.sleepf 0.001
  done;
  let port =
    match Atomic.get bound with
    | Some (Serve.Transport.Tcp (_, p)) -> p
    | _ -> failwith "serve-mix: daemon did not bind"
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* Ready means the connection is owned by a handler domain. *)
  ignore (roundtrip fd {|{"op":"health"}|});
  prime (roundtrip fd);
  { server; domain; fd }

let stop live =
  (try Unix.close live.fd with Unix.Unix_error _ -> ());
  Serve.Server.drain live.server;
  Domain.join live.domain

type sample = {
  mutable sent : float;
  mutable recv : float;
  mutable resp : string option;
  mutable cache_seen : string option;  (** traced runs decode on arrival *)
}

type phase = {
  samples : sample array;
  t0 : float;
  obs : obs;
  gc : gc;
  rss_mb : float;  (** peak resident set at the end of the phase *)
}

let cache_state resp =
  match Json.parse resp with
  | Ok j -> Json.string_field "cache" j
  | Error _ -> None

(* Open loop: request i is sent when it is due, at t0 + arrivals.(i),
   whatever is still outstanding. *)
let drive ~traced live reqs arrivals =
  let n = Array.length reqs in
  let samples =
    Array.init n (fun _ ->
        { sent = nan; recv = nan; resp = None; cache_seen = None })
  in
  let pending = Queue.create () in
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let o0 = obs_now () and g0 = gc_now () in
  let t0 = now () in
  let give_up = t0 +. (3. *. arrivals.(n - 1)) +. 60. in
  let next = ref 0 and answered = ref 0 and lost = ref false in
  let send_next () =
    let i = !next in
    send live.fd reqs.(i).line;
    samples.(i).sent <- now ();
    Queue.push i pending;
    incr next
  in
  while !answered < n && (not !lost) && now () < give_up do
    let t = now () in
    while !next < n && t0 +. arrivals.(!next) <= t do
      send_next ()
    done;
    let timeout =
      if !next >= n then 0.05 else Float.max 0. (t0 +. arrivals.(!next) -. now ())
    in
    if select [ live.fd ] timeout <> [] then begin
      let k = Unix.read live.fd chunk 0 (Bytes.length chunk) in
      if k = 0 then lost := true
      else begin
        Buffer.add_subbytes buf chunk 0 k;
        let t = now () in
        List.iter
          (fun msg ->
            let s = samples.(Queue.pop pending) in
            s.recv <- t;
            s.resp <- Some msg;
            if traced then s.cache_seen <- cache_state msg;
            incr answered)
          (frames buf)
      end
    end
  done;
  {
    samples;
    t0;
    obs = obs_diff o0 (obs_now ());
    gc = gc_diff g0 (gc_now ());
    rss_mb = peak_rss_mb ();
  }

(* ---- correctness ---- *)

type answer = {
  ok : bool;
  cache : string;
  key : string;
  result : Json.t option;
}

let answer_of resp =
  match Json.parse resp with
  | Error _ -> None
  | Ok j ->
    Some
      {
        ok = Json.bool_field "ok" j = Some true;
        cache = Option.value ~default:"" (Json.string_field "cache" j);
        key = Option.value ~default:"" (Json.string_field "key" j);
        result = Json.member "result" j;
      }

type artifact = { report : Caqr.Pipeline.report; device : Hardware.Device.t }

let artifact_key (r : req) =
  Quantum.Circuit.digest r.circuit ^ "/" ^ fst r.strategy

(* Each distinct (circuit, strategy) compiled once more through the
   library, outside the timing: its stats must equal what the daemon
   answered, and it carries the output-quality totals. *)
let recompile reqs =
  let table = Hashtbl.create 128 in
  Array.iter
    (fun (r : req) ->
      let k = artifact_key r in
      if not (Hashtbl.mem table k) then begin
        let device =
          Hardware.Device.heavy_hex_for r.circuit.Quantum.Circuit.num_qubits
        in
        let report =
          Caqr.Pipeline.compile
            ~options:{ Caqr.Pipeline.default with seed = 1 }
            device (snd r.strategy) r.input
        in
        Hashtbl.add table k { report; device }
      end)
    reqs;
  table

let stats_fields (a : artifact) =
  let s = a.report.Caqr.Pipeline.stats in
  [
    ("qubits", s.Transpiler.Transpile.qubits_used);
    ("depth", s.Transpiler.Transpile.depth);
    ("duration_dt", s.Transpiler.Transpile.duration_dt);
    ("swaps", s.Transpiler.Transpile.swaps);
    ("two_q", s.Transpiler.Transpile.two_q);
    ("gate_count", s.Transpiler.Transpile.gate_count);
    ("reuse_pairs", a.report.Caqr.Pipeline.reuse_pairs);
  ]

let verdict_ok result =
  match Json.string_field "verdict" result with
  | Some v -> not (String.length v >= 12 && String.sub v 0 12 = "INEQUIVALENT")
  | None -> true

type reference = {
  answer : answer option;
  handled : float;  (** seconds in handle_line *)
  delta : obs;  (** what the call recorded *)
}

(* Reference: the same lines, in stream order, through handle_line on a
   fresh, equally primed daemon with no transport. *)
let replay reqs =
  let server =
    Serve.Server.create (server_config (Serve.Transport.Tcp ("127.0.0.1", 0)))
  in
  prime (fun line -> fst (Serve.Server.handle_line server line));
  Array.map
    (fun (r : req) ->
      let o0 = obs_now () in
      let (resp, _), handled =
        time (fun () -> Serve.Server.handle_line server r.line)
      in
      { answer = answer_of resp; handled; delta = obs_diff o0 (obs_now ()) })
    reqs

let check reqs (phase : phase) reference artifacts =
  let reasons = Hashtbl.create 8 in
  let failed = ref 0 in
  let fail why =
    incr failed;
    Hashtbl.replace reasons why
      (1 + Option.value ~default:0 (Hashtbl.find_opt reasons why))
  in
  let structural = Hashtbl.create 128 in
  Array.iteri
    (fun i (r : req) ->
      let a = Hashtbl.find artifacts (artifact_key r) in
      let st =
        match Hashtbl.find_opt structural (artifact_key r) with
        | Some b -> b
        | None ->
          let b = Compile_loop.structural_ok a.device a.report in
          Hashtbl.add structural (artifact_key r) b;
          b
      in
      match Option.bind phase.samples.(i).resp answer_of with
      | None -> fail "no well-formed response"
      | Some ans when not ans.ok -> fail "response ok:false"
      | Some ans ->
        (match (ans.result, reference.(i).answer) with
         | Some res, Some ref_ans when ref_ans.result = Some res ->
           let fields_ok =
             List.for_all
               (fun (f, v) -> Json.int_field f res = Some v)
               (stats_fields a)
           in
           if not (ans.cache = "hit" || ans.cache = "miss") then
             fail ("unexpected cache state " ^ ans.cache)
           else if not fields_ok then fail "result differs from the library's artifact"
           else if not (Caqr.Quality.is_exact a.report.Caqr.Pipeline.quality)
           then fail "not exact"
           else if not st then fail "structural check failed"
           else if not (verdict_ok res) then fail "verifier inequivalent"
         | _ -> fail "result differs from the sequential reference"))
    reqs;
  (!failed, Hashtbl.fold (fun k v acc -> (k, v) :: acc) reasons [])

(* ---- the workload ---- *)

(* Request index and answer time, from when it was due, of each
   answered request. *)
let latencies arrivals (p : phase) =
  List.filter_map Fun.id
    (Array.to_list
       (Array.mapi
          (fun i s ->
            if Float.is_nan s.recv then None
            else Some (i, s.recv -. (p.t0 +. arrivals.(i))))
          p.samples))

let lateness arrivals (p : phase) =
  Array.to_list (Array.mapi (fun i s -> s.sent -. (p.t0 +. arrivals.(i))) p.samples)
  |> List.filter (fun x -> not (Float.is_nan x))

let kind_name = function
  | Compile -> "compile"
  | Verify -> "verify"
  | Simulate -> "simulate"
  | Inline -> "inline"

(* Latency and sequential handle time per request kind: where the
   offered work and the waiting are. *)
let by_kind reqs timed reference =
  let row k =
    let idx =
      List.filter (fun i -> reqs.(i).kind = k) (List.init (Array.length reqs) Fun.id)
    in
    let lat = List.filter_map (fun (i, l) -> if reqs.(i).kind = k then Some l else None) timed in
    Printf.sprintf "%s n=%d p50 %.2f p99 %.1f ms, handled %.2f s" (kind_name k)
      (List.length idx) (1000. *. median lat) (1000. *. percentile lat 99.)
      (sum_f (List.map (fun i -> reference.(i).handled) idx))
  in
  "by kind: " ^ String.concat "; " (List.map row [ Compile; Verify; Simulate; Inline ])

(* Requests the replay answered from cache ("hit") or computed
   ("miss"), with their replay record. *)
let replayed_as state reqs reference =
  List.filter_map
    (fun i ->
      match reference.(i).answer with
      | Some a when a.cache = state -> Some (reqs.(i), reference.(i))
      | _ -> None)
    (List.init (Array.length reqs) Fun.id)

(* Layer metrics of the serve path, from the traced phase, the
   handle_line replay and timed calls on the run's own requests. *)
let serve_layers reqs arrivals (traced : phase) live reference artifacts =
  let rtt state =
    Array.to_list traced.samples
    |> List.filter_map (fun s ->
           if s.cache_seen = Some state then Some (s.recv -. s.sent) else None)
  in
  let handled state =
    List.map (fun (_, x) -> x.handled) (replayed_as state reqs reference)
  in
  let rtt_hit = rtt "hit" and rtt_miss = rtt "miss" in
  let handle_hit = handled "hit" and handle_miss = handled "miss" in
  let answers =
    List.filter_map (fun s -> Option.bind s.resp answer_of) (Array.to_list traced.samples)
  in
  let decode =
    mean_call (fun (r : req) -> Serve.Protocol.of_line r.line) (Array.to_list reqs)
  in
  let encode = mean_call Json.to_string (List.filter_map (fun a -> a.result) answers) in
  let cache = Serve.Server.cache live.server in
  let find = mean_call (fun a -> Serve.Cache.find cache a.key) answers in
  let simulated =
    distinct_by
      (fun (r : req) -> (artifact_key r, r.seed))
      (List.filter (fun (r : req) -> r.kind = Simulate) (Array.to_list reqs))
  in
  let sims =
    List.map
      (fun (r : req) ->
        snd @@ time @@ fun () ->
        Sim.Executor.run ~jobs:1 ~seed:r.seed ~shots:sim_shots
          (Hashtbl.find artifacts (artifact_key r)).report.Caqr.Pipeline.physical)
      simulated
  in
  let hits = counter traced.obs "serve.cache.hit"
  and misses = counter traced.obs "serve.cache.miss" in
  let last_sent = Array.fold_left (fun m s -> Float.max m s.sent) traced.t0 traced.samples in
  let n = Array.length reqs in
  let metrics =
    [
      metric "sim.run_ms" "ms" (1000. *. mean sims);
      metric "serve.protocol.decode_us" "us" (1e6 *. decode);
      metric "serve.json.encode_us" "us" (1e6 *. encode);
      metric "serve.cache.find_us" "us" (1e6 *. find);
      metric "serve.cache.hit_ratio" "ratio" (ratio hits (hits + misses));
      metric "serve.handle_hit_us" "us" (1e6 *. median handle_hit);
      metric "serve.handle_miss_ms" "ms" (1000. *. median handle_miss);
      metric "serve.rtt_hit_p50_ms" "ms" (1000. *. median rtt_hit);
      metric "serve.rtt_miss_p50_ms" "ms" (1000. *. median rtt_miss);
      metric "serve.transport_us" "us"
        (1e6 *. (median rtt_hit -. median handle_hit));
      metric "serve.errors" "count" (float_of_int (counter traced.obs "serve.errors"));
      metric "serve.rejected.overload" "count"
        (float_of_int (counter traced.obs "serve.rejected.overload"));
      metric "loadgen.lag_p99_ms" "ms"
        (1000. *. percentile (lateness arrivals traced) 99.);
      metric "loadgen.offered_rps" "1/s" (float_of_int n /. (last_sent -. traced.t0));
    ]
  in
  let bases =
    [
      Printf.sprintf "serve.cache.hit_ratio base: %d hits of %d lookups" hits
        (hits + misses);
      Printf.sprintf
        "serve bases: round trips %d hits, %d misses; handle_line replay %d \
         hits, %d misses; %d simulate artifacts; decode, encode and find \
         are batch means over %d requests"
        (List.length rtt_hit) (List.length rtt_miss) (List.length handle_hit)
        (List.length handle_miss) (List.length sims) (Array.length reqs);
    ]
  in
  (metrics, bases)

let run ~seed ~seconds ~trace =
  let build () =
    let reqs, arrivals = generate ~seed ~seconds in
    Compile_loop.warm ();
    (reqs, arrivals, start ())
  in
  let (reqs, arrivals, live), setups =
    repeated_setup ~dispose:(fun (_, _, l) -> stop l) build
  in
  let n = Array.length reqs in
  let measure ~traced live =
    let phase = drive ~traced live reqs arrivals in
    stop live;
    phase
  in
  let phase = measure ~traced:false live in
  let reference = replay reqs in
  let artifacts = recompile reqs in
  let failed, reasons = check reqs phase reference artifacts in
  let timed = latencies arrivals phase in
  let lat = List.map snd timed in
  let last_recv =
    Array.fold_left
      (fun m s -> if Float.is_nan s.recv then m else Float.max m s.recv)
      phase.t0 phase.samples
  in
  let t = tail lat in
  let arts = Hashtbl.fold (fun _ a acc -> a :: acc) artifacts [] in
  let e2e =
    [
      metric "ops_per_s" "1/s" (float_of_int (List.length lat) /. (last_recv -. phase.t0));
      metric "latency_p50_ms" "ms" (1000. *. median lat);
      metric "latency_tail_ms" "ms" (1000. *. t.value);
      metric "success_ratio" "ratio" (ratio (n - failed) n);
      metric "setup_s" "s" (median setups);
      metric "alloc_mb_per_op" "MB" (per n (allocated_mb phase.gc));
    ]
    @ Compile_loop.out_totals (List.map (fun a -> a.report) arts)
  in
  let count k =
    Array.fold_left (fun acc (r : req) -> if r.kind = k then acc + 1 else acc) 0 reqs
  in
  let pct p = 1000. *. percentile lat p in
  let lags = lateness arrivals phase in
  let notes =
    [
      Printf.sprintf
        "requests=%d (compile %d, verify %d, simulate %d, inline %d) \
         answered=%d span=%.3f s distinct artifacts=%d"
        n (count Compile) (count Verify) (count Simulate) (count Inline)
        (List.length lat) (last_recv -. phase.t0) (List.length arts);
      setup_note setups;
      "latency_tail_ms is " ^ tail_label t ^ " (from due time)";
      Printf.sprintf
        "latency ms: p50 %.3f p75 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f"
        (pct 50.) (pct 75.) (pct 90.) (pct 95.) (pct 99.) (pct 100.);
      Printf.sprintf "generator lateness: p50 %.3f ms, p99 %.3f ms"
        (1000. *. median lags) (1000. *. percentile lags 99.);
      by_kind reqs timed reference;
      Printf.sprintf "error_rate: %d failed / %d attempted" failed n;
    ]
    @ List.map (fun (why, k) -> Printf.sprintf "FAILED x%d: %s" k why) reasons
  in
  let layers, layer_notes, traced_failed =
    if not trace then ([], [], 0)
    else begin
      let traced_live = start () in
      let traced = measure ~traced:true traced_live in
      let t_failed, _ = check reqs traced reference artifacts in
      let misses = replayed_as "miss" reqs reference in
      let compile_m, compile_b =
        Layers.compile
          ~walls:(List.map (fun (_, x) -> x.handled) misses)
          (List.map (fun ((r : req), x) -> (snd r.strategy, x.delta)) misses)
      in
      let probe_m, probe_b =
        Layers.probes
          (Layers.probe_set
             ~inputs:
               (List.map
                  (fun (r : req) -> r.input)
                  (distinct_by
                     (fun (r : req) -> Quantum.Circuit.digest r.circuit)
                     (Array.to_list reqs)))
             ~artifacts:(List.map (fun a -> a.report.Caqr.Pipeline.physical) arts)
             ~texts:(List.filter_map (fun (r : req) -> r.source) (Array.to_list reqs))
             ~circuits:(Array.to_list (Array.map (fun (r : req) -> r.circuit) reqs)))
      in
      let serve_m, serve_b =
        serve_layers reqs arrivals traced traced_live reference artifacts
      in
      let t_lat = List.map snd (latencies arrivals traced) in
      ( compile_m @ probe_m
        @ Layers.activity ~ops:n traced.obs traced.gc
        @ serve_m
        @ [
            Layers.overhead ~untraced:(median lat) ~traced:(median t_lat);
            metric "peak_rss_mb" "MB" traced.rss_mb;
          ],
        compile_b @ probe_b @ serve_b
        @ [
            "core.*, transpiler.* and verify.* on serve-mix: per cache miss \
             of the handle_line replay";
            Printf.sprintf
              "tracing overhead: latency p50 %.3f ms untraced vs %.3f ms traced"
              (1000. *. median lat) (1000. *. median t_lat);
          ],
        t_failed )
    end
  in
  {
    Compile_loop.e2e;
    layers;
    notes = notes @ layer_notes;
    attempted = (if trace then 2 * n else n);
    failed = failed + traced_failed;
  }
