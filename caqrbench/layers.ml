(* Per-layer metrics measured from outside the library: deltas of the
   Obs.Metrics timers and counters the compile passes already record,
   and timed calls into each module's public functions. *)

open Util

(* Strategies whose engine is the QS search. Its time.analyze calls
   nest inside time.search; the cone and GidNET engines analyse outside
   any search, so their analysis is not subtracted from it. *)
let qs_engine = function
  | Caqr.Pipeline.Qs_max_reuse | Caqr.Pipeline.Qs_min_depth
  | Caqr.Pipeline.Qs_best_fidelity | Caqr.Pipeline.Qs_target _ ->
    true
  | Caqr.Pipeline.Baseline | Caqr.Pipeline.Sr | Caqr.Pipeline.Cone
  | Caqr.Pipeline.Gidnet ->
    false

(* QS search time less the analysis nested in it, of one compile. *)
let search_self_ms strategy (d : obs) =
  timer_ms d "time.search"
  -. if qs_engine strategy then timer_ms d "time.analyze" else 0.

(* Layer split of a set of [Pipeline.compile] calls, from their wall
   times and the Obs delta each produced. *)
let compile ~walls (per_op : (Caqr.Pipeline.strategy * obs) list) =
  let d = obs_sum (List.map snd per_op) in
  let ops = List.length walls in
  let t = timer_ms d in
  let c k = float_of_int (counter d k) in
  let search = t "time.search" and analyze = t "time.analyze" in
  let search_self = sum_f (List.map (fun (s, o) -> search_self_ms s o) per_op) in
  let covered =
    search +. t "time.route" +. t "time.verify" +. t "time.sr"
    +. t "time.cone" +. t "time.gidnet"
  in
  let nodes = counter d "qs.search.nodes" in
  let hit = counter d "qs.cache.hit" and miss = counter d "qs.cache.miss" in
  let metrics =
    [
      metric "core.pipeline.compile_ms" "ms" (1000. *. median walls);
      metric "core.pipeline.self_ms" "ms"
        (per ops ((1000. *. sum_f walls) -. covered));
      metric "core.reuse.analyze_ms" "ms" (per ops analyze);
      metric "core.reuse.analyze.incremental" "count"
        (per ops (c "reuse.analyze.incremental"));
      metric "core.qs.search_ms" "ms" (per ops search);
      metric "core.qs.search_self_ms" "ms" (per ops search_self);
      metric "core.qs.nodes" "count" (per ops (float_of_int nodes));
      metric "core.qs.us_per_node" "us"
        (per nodes (1000. *. search_self));
      metric "core.qs.memo_hit_ratio" "ratio" (ratio hit (hit + miss));
      metric "core.sr_ms" "ms" (per ops (t "time.sr"));
      metric "core.cone_ms" "ms" (per ops (t "time.cone"));
      metric "core.gidnet_ms" "ms" (per ops (t "time.gidnet"));
      metric "transpiler.route_ms" "ms" (per ops (t "time.route"));
      metric "transpiler.runs" "count" (per ops (c "transpile.runs"));
      metric "verify.ms" "ms" (per ops (t "time.verify"));
      metric "verify.runs" "count" (per ops (c "verify.runs"));
    ]
  in
  let bases =
    [
      Printf.sprintf "core.* per-op values are over %d compiles" ops;
      Printf.sprintf "core.qs.memo_hit_ratio base: %d hits of %d lookups" hit
        (hit + miss);
      Printf.sprintf "core.qs.us_per_node base: %d nodes" nodes;
    ]
  in
  (metrics, bases)

(* The workload's distinct inputs and outputs, for the probes below. *)
type probe_set = {
  regular : Quantum.Circuit.t list;  (** distinct regular inputs *)
  graphs : Galg.Graph.t list;  (** distinct commutable (QAOA) inputs *)
  artifacts : Quantum.Circuit.t list;  (** distinct physical artifacts *)
  texts : string list;  (** QASM-3 sources the workload parses *)
  circuits : Quantum.Circuit.t list;  (** circuit of every op, for digest *)
}

let probe_set ~inputs ~artifacts ~texts ~circuits =
  {
    regular =
      List.filter_map
        (function Caqr.Pipeline.Regular c -> Some c | Caqr.Pipeline.Commutable _ -> None)
        inputs;
    graphs =
      List.filter_map
        (function Caqr.Pipeline.Commutable g -> Some g | Caqr.Pipeline.Regular _ -> None)
        inputs;
    artifacts;
    texts;
    circuits;
  }

(* Median of three timings of [f], to steady one-shot probes. *)
let timed3 f =
  let r, a = time f in
  let _, b = time f in
  let _, c = time f in
  (r, median [ a; b; c ])

let probes p =
  let roots =
    List.map
      (fun c ->
        let a = Caqr.Reuse.analyze c in
        let pairs, dt = timed3 (fun () -> Caqr.Reuse.valid_pairs a) in
        (List.length pairs, dt))
      p.regular
  in
  let n_reg = List.length roots in
  let sweeps =
    List.map (fun g -> snd (timed3 (fun () -> Caqr.Commute.sweep g))) p.graphs
  in
  let emits =
    List.map
      (fun phys ->
        let compact = fst (Quantum.Circuit.compact_qubits phys) in
        snd (timed3 (fun () -> Quantum.Qasm.to_string compact)))
      p.artifacts
  in
  let parses =
    List.map
      (fun src -> snd (timed3 (fun () -> Quantum.Qasm_parser.parse src)))
      p.texts
  in
  let digest = mean_call Quantum.Circuit.digest p.circuits in
  let metrics =
    [
      metric "core.reuse.root_candidates" "count"
        (per n_reg (float_of_int (sum_i (List.map fst roots))));
      metric "core.reuse.valid_pairs_ms" "ms"
        (per n_reg (1000. *. sum_f (List.map snd roots)));
      metric "core.commute.sweep_ms" "ms" (1000. *. mean sweeps);
      metric "quantum.qasm_emit_ms" "ms" (1000. *. mean emits);
      metric "quantum.qasm_parse_ms" "ms" (1000. *. mean parses);
      metric "quantum.digest_us" "us" (1e6 *. digest);
    ]
  in
  let bases =
    [
      Printf.sprintf
        "probe bases: %d regular inputs, %d QAOA graphs, %d artifacts, %d \
         parsed sources, %d digests"
        n_reg (List.length sweeps) (List.length emits) (List.length parses)
        (List.length p.circuits);
    ]
  in
  (metrics, bases)

(* Counter and Gc activity of the timed phase, per op. *)
let activity ~ops (d : obs) (g : gc) =
  [
    metric "obs.counter_bumps_per_op" "count"
      (per ops (float_of_int (counter_bumps d)));
    metric "gc.minor_words_per_op" "words" (per ops g.minor);
    metric "gc.promoted_words_per_op" "words" (per ops g.promoted);
    metric "gc.major_collections" "count" (float_of_int g.majors);
  ]

(* Metrics of the serve layers; zero on workloads without a daemon. *)
let serve_names =
  [
    ("sim.run_ms", "ms");
    ("serve.protocol.decode_us", "us");
    ("serve.json.encode_us", "us");
    ("serve.cache.find_us", "us");
    ("serve.cache.hit_ratio", "ratio");
    ("serve.handle_hit_us", "us");
    ("serve.handle_miss_ms", "ms");
    ("serve.rtt_hit_p50_ms", "ms");
    ("serve.rtt_miss_p50_ms", "ms");
    ("serve.transport_us", "us");
    ("serve.errors", "count");
    ("serve.rejected.overload", "count");
    ("loadgen.lag_p99_ms", "ms");
    ("loadgen.offered_rps", "1/s");
  ]

let absent names = List.map (fun (n, u) -> metric n u 0.) names

let overhead ~untraced ~traced =
  metric "trace.overhead_pct" "%"
    (if untraced <= 0. then 0. else 100. *. ((traced /. untraced) -. 1.))
