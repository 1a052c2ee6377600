(* caqr — command-line front end for the CaQR compiler.

   Subcommands:
     list                      show the benchmark registry
     compile  <bench>          compile a benchmark with a chosen strategy
     sweep    <bench>          print the qubit/depth tradeoff table
     check    <bench>          reuse applicability verdict
     simulate <bench>          compile and run (optionally noisy) simulation
     verify   <bench>          translation-validate every strategy's output
     fuzz                      differential fuzzing with replayable seeds
     chaos                     fault-injection sweep over every guard site
     serve                     compilation-as-a-service daemon (Unix socket)
     call                      send newline-JSON requests to a daemon
     chaos-serve               wire-level fault injection against the daemon

   Exit codes (see README): 0 success; 1 verification/oracle violation
   (or, for call, a request answered ok:false); 2 usage error; 3 compile
   degraded to baseline; 4 internal error. *)

let all_strategies = Caqr.Pipeline.all_strategies

(* [contains r needle]: [needle] occurs in the response line [r]. *)
let contains r needle =
  let n = String.length needle and m = String.length r in
  let rec go i = i + n <= m && (String.sub r i n = needle || go (i + 1)) in
  go 0

let find_entry name =
  try Ok (Benchmarks.Suite.find name)
  with Not_found ->
    Error
      (`Msg
        (Printf.sprintf "unknown benchmark %S; run `caqr_cli list`" name))

let bench_arg =
  let parse s = find_entry s in
  let print ppf (e : Benchmarks.Suite.entry) =
    Format.pp_print_string ppf e.Benchmarks.Suite.name
  in
  Cmdliner.Arg.conv (parse, print)

let bench_pos =
  Cmdliner.Arg.(
    required & pos 0 (some bench_arg) None & info [] ~docv:"BENCHMARK")

let strategy_arg =
  (* One grammar for every front end: Pipeline owns the name map, so the
     error message always lists exactly the wired strategies. *)
  let parse s =
    match Caqr.Pipeline.strategy_of_name s with
    | Ok st -> Ok st
    | Error msg -> Error (`Msg msg)
  in
  let print ppf s = Format.pp_print_string ppf (Caqr.Pipeline.strategy_name s) in
  Cmdliner.Arg.conv (parse, print)

let strategy_flag =
  Cmdliner.Arg.(
    value
    & opt strategy_arg Caqr.Pipeline.Sr
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Compilation strategy: baseline, qs-max-reuse, qs-min-depth, \
           qs-best-fidelity, sr, cone, gidnet, or an integer qubit \
           budget.")

let qasm_flag =
  Cmdliner.Arg.(
    value & flag & info [ "qasm" ] ~doc:"Print the compiled OpenQASM 3.")

let noisy_flag =
  Cmdliner.Arg.(
    value & flag
    & info [ "noisy" ] ~doc:"Simulate with the synthetic Mumbai noise model.")

let shots_flag =
  Cmdliner.Arg.(
    value & opt int 1024 & info [ "shots" ] ~docv:"N" ~doc:"Shots to sample.")

let seed_flag =
  Cmdliner.Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Random seed for simulation and verification probes.")

let timings_flag =
  Cmdliner.Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:
          "Collect pipeline metrics and print per-phase wall-clock timings \
           and work counters after the result.")

let jobs_flag =
  Cmdliner.Arg.(
    value
    & opt int (Exec.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the compilation fan-out, fuzz batches and \
           shot sampling. Output is byte-identical for every value; only \
           wall-clock time changes. Defaults to the runtime's recommended \
           domain count (capped).")

let timeout_flag =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Cooperative wall-clock budget for the compile. Hot loops poll \
           the deadline and trip a typed budget error; with $(b,--fallback) \
           the degradation ladder turns the trip into a demotion.")

let fallback_flag =
  Cmdliner.Arg.(
    value & flag
    & info [ "fallback" ]
        ~doc:
          "Supervise the compile with the degradation ladder: a failing \
           strategy demotes toward baseline instead of aborting. Exits 3 \
           when the compile only succeeded by demoting to baseline.")

let max_sim_qubits_flag =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "max-sim-qubits" ] ~docv:"N"
        ~doc:
          "Cap the state-vector simulator width (default 24, hard ceiling \
           26). Over-cap circuits are refused with a structured error \
           instead of an allocation blow-up.")

let apply_sim_cap = Option.iter Sim.State.set_max_qubits

(* [--timings] and [--timeout-ms] are this tool's policy, not the
   compiler's: [timed] resets the process-global registry right before
   [f], runs [f] under the deadline and snapshots the registry right
   after. *)
let timed ~timings ?deadline_ms f =
  if timings then Obs.Metrics.reset ();
  let r = Guard.Budget.scoped (Guard.Budget.make ?ms:deadline_ms ()) f in
  (r, if timings then Some (Obs.Metrics.snapshot ()) else None)

(* Exit 3: the ladder saved the run, but only by abandoning reuse
   entirely — scripts relying on a reuse strategy need to know. *)
let report_degradation requested (r : Caqr.Pipeline.report) =
  List.iter
    (fun (d : Caqr.Pipeline.degraded) ->
      Printf.eprintf "degraded: %s failed: %s\n"
        (Caqr.Pipeline.strategy_name d.Caqr.Pipeline.from_strategy)
        (Guard.Error.to_string d.Caqr.Pipeline.error))
    r.Caqr.Pipeline.degraded;
  if
    r.Caqr.Pipeline.degraded <> []
    && r.Caqr.Pipeline.strategy = Caqr.Pipeline.Baseline
    && requested <> Caqr.Pipeline.Baseline
  then exit 3

let print_metrics =
  Option.iter (fun m -> Format.printf "%a@." Obs.Metrics.pp m)

let level_arg =
  let parse s =
    match Verify.level_of_string s with
    | Ok l -> Ok l
    | Error msg -> Error (`Msg msg)
  in
  let print ppf l = Format.pp_print_string ppf (Verify.level_name l) in
  Cmdliner.Arg.conv (parse, print)

let level_flag =
  Cmdliner.Arg.(
    value
    & opt level_arg Verify.Auto
    & info [ "l"; "level" ] ~docv:"LEVEL"
        ~doc:
          "Verification level: static (structural checks only), sampled \
           (statistical probes), exact (branch-enumeration equivalence), or \
           auto (exact when the circuits fit, else probes).")

let device_for (e : Benchmarks.Suite.entry) =
  Hardware.Device.heavy_hex_for e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits

(* ---- list ---- *)

let list_cmd =
  let run () =
    Printf.printf "%-20s %-11s %s\n" "name" "kind" "description";
    List.iter
      (fun (e : Benchmarks.Suite.entry) ->
        Printf.printf "%-20s %-11s %s\n" e.Benchmarks.Suite.name
          (match e.Benchmarks.Suite.kind with
           | Benchmarks.Suite.Regular -> "regular"
           | Benchmarks.Suite.Commutable _ -> "commutable")
          e.Benchmarks.Suite.description)
      (Benchmarks.Suite.table1 ());
    (* The large corpus lists from its generator table — names and
       descriptions only, no 1000-qubit construction. *)
    List.iter
      (fun (g : Benchmarks.Large.gen) ->
        Printf.printf "%-20s %-11s %s\n" g.Benchmarks.Large.name "regular"
          g.Benchmarks.Large.description)
      (Benchmarks.Large.generators ())
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "list" ~doc:"List the benchmark registry")
    Cmdliner.Term.(const run $ const ())

(* ---- compile ---- *)

(* The compile-and-print path of [compile] and [qasmc]; [label] names
   the input (a benchmark or a file path). *)
let compile_and_print ~label ~qasm ~timings ~jobs ?deadline_ms ~fallback
    device strategy input =
  let r, metrics =
    timed ~timings ?deadline_ms (fun () ->
        Caqr.Pipeline.compile
          ~options:{ Caqr.Pipeline.default with jobs; fallback }
          device strategy input)
  in
  Format.printf "%s / %s:@.  %a@.  reuse pairs: %d@.  quality: %s@." label
    (Caqr.Pipeline.strategy_name r.Caqr.Pipeline.strategy)
    Transpiler.Transpile.pp_stats r.Caqr.Pipeline.stats r.Caqr.Pipeline.reuse_pairs
    (Caqr.Quality.to_string r.Caqr.Pipeline.quality);
  print_metrics metrics;
  if qasm then
    print_string
      (Quantum.Qasm.to_string
         (fst (Quantum.Circuit.compact_qubits r.Caqr.Pipeline.physical)));
  report_degradation strategy r

let compile_cmd =
  let run entry strategy qasm timings jobs deadline_ms fallback =
    compile_and_print ~label:entry.Benchmarks.Suite.name ~qasm ~timings ~jobs
      ?deadline_ms ~fallback (device_for entry) strategy
      (Benchmarks.Suite.input entry)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "compile" ~doc:"Compile a benchmark")
    Cmdliner.Term.(
      const run $ bench_pos $ strategy_flag $ qasm_flag $ timings_flag
      $ jobs_flag $ timeout_flag $ fallback_flag)

(* ---- sweep ---- *)

let sweep_cmd =
  let run entry jobs =
    let device = device_for entry in
    Printf.printf "%-8s %-12s %-14s %-14s %-8s\n" "qubits" "log.depth"
      "compiled.depth" "duration(dt)" "swaps";
    List.iter
      (fun (r : Caqr.Pipeline.sweep_row) ->
        Printf.printf "%-8d %-12d %-14d %-14d %-8d\n" r.step.usage r.step.depth
          r.stats.Transpiler.Transpile.depth
          r.stats.Transpiler.Transpile.duration_dt
          r.stats.Transpiler.Transpile.swaps)
      (Caqr.Pipeline.sweep_stats ~jobs device (Benchmarks.Suite.input entry))
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "sweep" ~doc:"Print the qubit/depth tradeoff table")
    Cmdliner.Term.(const run $ bench_pos $ jobs_flag)

(* ---- check ---- *)

let check_cmd =
  let run entry =
    let yes, why =
      Caqr.Pipeline.beneficial (device_for entry) (Benchmarks.Suite.input entry)
    in
    Printf.printf "%s: %s — %s\n" entry.Benchmarks.Suite.name
      (if yes then "reuse is beneficial" else "no reuse benefit")
      why;
    exit (if yes then 0 else 1)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "check" ~doc:"Reuse applicability verdict")
    Cmdliner.Term.(const run $ bench_pos)

(* ---- qasmc: compile a circuit from an OpenQASM file ---- *)

let qasmc_cmd =
  let file_pos =
    Cmdliner.Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE.qasm")
  in
  let run path strategy qasm timings jobs deadline_ms fallback =
    let text =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Quantum.Qasm_parser.parse text with
    | Error e ->
      (* A malformed input is a usage error, not an internal one; the
         diagnostic carries the offending line and column. *)
      Printf.eprintf "%s: %s\n" path (Guard.Error.to_string e);
      exit 2
    | Ok circuit ->
      compile_and_print ~label:path ~qasm ~timings ~jobs ?deadline_ms
        ~fallback
        (Hardware.Device.heavy_hex_for circuit.Quantum.Circuit.num_qubits)
        strategy (Caqr.Pipeline.Regular circuit)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "qasmc" ~doc:"Compile an OpenQASM file with CaQR")
    Cmdliner.Term.(
      const run $ file_pos $ strategy_flag $ qasm_flag $ timings_flag
      $ jobs_flag $ timeout_flag $ fallback_flag)

(* ---- simulate ---- *)

let simulate_cmd =
  let run entry strategy noisy shots seed jobs max_sim_qubits =
    apply_sim_cap max_sim_qubits;
    let device = device_for entry in
    let r =
      Caqr.Pipeline.compile ~options:{ Caqr.Pipeline.default with jobs } device strategy
        (Benchmarks.Suite.input entry)
    in
    let counts =
      (* The noise model keeps one monolithic RNG stream per run, so it
         stays sequential; ideal sampling shot-splits over the pool. *)
      if noisy then Sim.Noise.run ~device ~seed ~shots r.Caqr.Pipeline.physical
      else Sim.Executor.run ~jobs ~seed ~shots r.Caqr.Pipeline.physical
    in
    Format.printf "%s / %s (%s, %d shots):@.%a@." entry.Benchmarks.Suite.name
      (Caqr.Pipeline.strategy_name strategy)
      (if noisy then "noisy" else "ideal")
      shots Sim.Counts.pp counts
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "simulate" ~doc:"Compile and simulate a benchmark")
    Cmdliner.Term.(
      const run $ bench_pos $ strategy_flag $ noisy_flag $ shots_flag
      $ seed_flag $ jobs_flag $ max_sim_qubits_flag)

(* ---- verify ---- *)

let verify_cmd =
  let run entry level seed jobs =
    let device = device_for entry in
    let input = Benchmarks.Suite.input entry in
    let options =
      { Caqr.Pipeline.default with verify = Some level; seed; jobs }
    in
    Printf.printf "%s — translation validation (level %s, seed %d)\n"
      entry.Benchmarks.Suite.name (Verify.level_name level) seed;
    Printf.printf "%-18s %-8s %s\n" "strategy" "pairs" "verdict";
    let failed = ref false in
    (* The strategy fan-out (compile + verify per strategy) runs on the
       pool; printing happens afterwards, in strategy order. *)
    let reports =
      Caqr.Pipeline.compile_all ~options device
        (List.map snd all_strategies) input
    in
    List.iter2
      (fun (name, _) (r : Caqr.Pipeline.report) ->
        let verdict =
          match r.Caqr.Pipeline.verification with
          | Some v -> v
          | None -> Verify.Inconclusive "verification was not run"
        in
        if Verify.Verdict.is_inequivalent verdict then failed := true;
        Printf.printf "%-18s %-8d %s\n%!" name r.Caqr.Pipeline.reuse_pairs
          (Verify.Verdict.to_string verdict))
      all_strategies reports;
    if !failed then begin
      Printf.eprintf "verification FAILED: a strategy emitted an inequivalent circuit\n";
      exit 1
    end
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "verify"
       ~doc:
         "Compile a benchmark with every strategy and translation-validate \
          each output; exits non-zero if any verdict is inequivalent")
    Cmdliner.Term.(const run $ bench_pos $ level_flag $ seed_flag $ jobs_flag)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let cases_flag =
    Cmdliner.Arg.(
      value & opt int 200
      & info [ "cases" ] ~docv:"K" ~doc:"Number of random circuits to check.")
  in
  let fuzz_seed_flag =
    Cmdliner.Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Master seed. The whole case stream is a pure function of it: \
             the same seed replays the same circuits and verdicts.")
  in
  let max_qubits_flag =
    Cmdliner.Arg.(
      value & opt int Fuzz.Gen.default.Fuzz.Gen.max_qubits
      & info [ "max-qubits" ] ~docv:"N" ~doc:"Widest generated circuit.")
  in
  let max_gates_flag =
    Cmdliner.Arg.(
      value & opt int Fuzz.Gen.default.Fuzz.Gen.max_gates
      & info [ "max-gates" ] ~docv:"N" ~doc:"Longest generated circuit.")
  in
  let oracle_arg =
    let parse s =
      match Fuzz.Oracle.of_name s with
      | Ok o -> Ok o
      | Error msg -> Error (`Msg msg)
    in
    let print ppf o = Format.pp_print_string ppf (Fuzz.Oracle.name o) in
    Cmdliner.Arg.conv (parse, print)
  in
  let oracles_flag =
    Cmdliner.Arg.(
      value & opt_all oracle_arg []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            "Restrict to one oracle (repeatable): engines, verified, \
             roundtrip. Default: all of them.")
  in
  let corpus_flag =
    Cmdliner.Arg.(
      value
      & opt (some string) (Some Fuzz.Corpus.default_dir)
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory for minimized counterexamples and their manifest.")
  in
  let no_corpus_flag =
    Cmdliner.Arg.(
      value & flag
      & info [ "no-corpus" ] ~doc:"Do not persist counterexamples.")
  in
  let run seed cases max_qubits max_gates oracles corpus no_corpus timings jobs =
    let config =
      {
        Fuzz.Gen.default with
        Fuzz.Gen.max_qubits = max max_qubits Fuzz.Gen.default.Fuzz.Gen.min_qubits;
        max_gates = max max_gates Fuzz.Gen.default.Fuzz.Gen.min_gates;
      }
    in
    let oracles = if oracles = [] then Fuzz.Oracle.all else oracles in
    let corpus_dir = if no_corpus then None else corpus in
    let summary, metrics =
      timed ~timings (fun () ->
          Fuzz.Driver.run ~config ~oracles ?corpus_dir ~jobs ~seed ~cases ())
    in
    Format.printf "%a" Fuzz.Driver.pp_summary summary;
    print_metrics metrics;
    if summary.Fuzz.Driver.failures <> [] then exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random dynamic circuits, run the \
          oracle battery, minimize and persist any counterexample; exits \
          non-zero on any oracle violation")
    Cmdliner.Term.(
      const run $ fuzz_seed_flag $ cases_flag $ max_qubits_flag
      $ max_gates_flag $ oracles_flag $ corpus_flag $ no_corpus_flag
      $ timings_flag $ jobs_flag)

(* ---- chaos ---- *)

let chaos_cmd =
  let chaos_seed_flag =
    Cmdliner.Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Drives which hit of each armed site fails. The whole matrix \
             is a pure function of the seed: repeated runs are \
             byte-identical.")
  in
  let chaos_bench_flag =
    Cmdliner.Arg.(
      value & opt_all bench_arg []
      & info [ "bench" ] ~docv:"BENCHMARK"
          ~doc:
            "Benchmark to sweep the sites over (repeatable). Defaults to a \
             small regular/commutable pair that together reach every \
             site.")
  in
  let run seed deadline_ms benches =
    let benches =
      match benches with
      | [] ->
        List.map Benchmarks.Suite.find [ "XOR_5"; "Multiply_13"; "QAOA5-0.3" ]
      | bs -> bs
    in
    let workloads =
      List.map
        (fun (e : Benchmarks.Suite.entry) ->
          (e.Benchmarks.Suite.name, Benchmarks.Suite.input e))
        benches
    in
    let cells = Chaos.run ~seed ?deadline_ms workloads in
    Format.printf "%a" Chaos.pp_matrix cells;
    let fired = Chaos.sites_fired cells in
    Format.printf "sites fired: %d/%d (%s)@." (List.length fired)
      (List.length Guard.Inject.sites)
      (String.concat ", " fired);
    if Chaos.any_verify_failed cells then begin
      Printf.eprintf "chaos: a fault produced a VERIFIER-REFUTED artifact\n";
      exit 1
    end;
    if not (Chaos.all_contained cells) then begin
      Printf.eprintf "chaos: a fault escaped the guard layer uncontained\n";
      exit 4
    end
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "chaos"
       ~doc:
         "Arm every registered fault-injection site in turn, run the \
          pipeline workload per benchmark, and check that each fault \
          yields valid output or a structured error. Exits 1 if a fault \
          let a wrong artifact through, 4 if an exception escaped the \
          guards.")
    Cmdliner.Term.(const run $ chaos_seed_flag $ timeout_flag $ chaos_bench_flag)

(* ---- serve: the compilation-as-a-service daemon ---- *)

let addr_conv =
  let parse s =
    match Serve.Transport.addr_of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  let print ppf a =
    Format.pp_print_string ppf (Serve.Transport.addr_to_string a)
  in
  Cmdliner.Arg.conv (parse, print)

let addr_flag =
  Cmdliner.Arg.(
    value
    & opt (some addr_conv) None
    & info [ "addr" ] ~docv:"ADDR"
        ~doc:
          "Service address: $(b,unix:)$(i,PATH) (newline-delimited JSON), \
           $(b,tcp:)$(i,HOST):$(i,PORT) (length-prefixed frames; port 0 \
           picks an ephemeral port), or a bare Unix-socket path.")

(* Without --addr, the config default (unix:caqr.sock). *)
let resolve_addr addr =
  Option.value addr ~default:Serve.Server.default_config.Serve.Server.addr

let serve_cmd =
  let cache_dir_flag =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "On-disk cache tier. Entries are keyed on (engine version, \
             circuit digest, options fingerprint) and written \
             crash-safely (temp+rename); entries from older engine \
             versions are never served. Default: memory tier only.")
  in
  let cache_mem_flag =
    Cmdliner.Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.mem_capacity
      & info [ "cache-mem" ] ~docv:"N"
          ~doc:"In-memory LRU capacity in entries (0 disables the tier).")
  in
  let default_deadline_flag =
    Cmdliner.Arg.(
      value
      & opt (some int) None
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:"Budget given to requests that carry no deadline_ms.")
  in
  let max_deadline_flag =
    Cmdliner.Arg.(
      value
      & opt (some int) None
      & info [ "max-deadline-ms" ] ~docv:"MS"
          ~doc:"Admission cap: per-request deadlines are clamped to this.")
  in
  let max_batch_flag =
    Cmdliner.Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.max_batch
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Most pipelined requests dispatched in one pool batch.")
  in
  let handler_domains_flag =
    Cmdliner.Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.handler_domains
      & info [ "handler-domains" ] ~docv:"N"
          ~doc:
            "Connection-handler domains: how many clients are served \
             concurrently.")
  in
  let max_inflight_flag =
    Cmdliner.Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Back-pressure: most compile/verify/simulate requests running \
             at once; excess requests are rejected immediately with a \
             recoverable request.overload error. 0 = unlimited.")
  in
  let disk_budget_flag =
    Cmdliner.Arg.(
      value
      & opt (some int) None
      & info [ "disk-budget-bytes" ] ~docv:"BYTES"
          ~doc:
            "Byte cap on the on-disk cache tier; least-recently-used \
             entries are evicted past it. Default: unbounded.")
  in
  let conn_timeout_flag =
    Cmdliner.Arg.(
      value
      & opt (some int) None
      & info [ "conn-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Idle/stall deadline per connection: a peer that completes no \
             batch for this long is answered with a structured \
             request.timeout error and disconnected (slow-loris defence). \
             Default: no deadline.")
  in
  let drain_deadline_flag =
    Cmdliner.Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.drain_deadline_ms
      & info [ "drain-deadline-ms" ] ~docv:"MS"
          ~doc:
            "On SIGTERM/SIGINT the daemon stops accepting, lets in-flight \
             connections finish for at most this long, flushes the disk \
             cache index and exits 0.")
  in
  let run addr cache_dir mem_capacity jobs handler_domains max_inflight
      disk_budget_bytes default_deadline_ms max_deadline_ms max_batch
      conn_timeout_ms drain_deadline_ms =
    let addr = resolve_addr addr in
    let server =
      Serve.Server.create
        {
          Serve.Server.default_config with
          Serve.Server.addr;
          cache_dir;
          disk_budget_bytes;
          mem_capacity;
          jobs;
          handler_domains;
          max_inflight;
          default_deadline_ms;
          max_deadline_ms;
          max_batch;
          conn_timeout_ms;
          drain_deadline_ms;
        }
    in
    Serve.Server.run server
      ~ready:(fun bound ->
        Printf.printf
          "caqr_cli serve: %s listening on %s (handlers %d, jobs %d%s)\n%!"
          Caqr.Version.engine
          (Serve.Transport.addr_to_string bound)
          handler_domains jobs
          (match cache_dir with
           | Some d -> Printf.sprintf ", disk cache %s" d
           | None -> ""));
    Printf.printf "caqr_cli serve: shutdown\n%!"
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "serve"
       ~doc:
         "Run the compilation service: a long-lived daemon answering JSON \
          compile/verify/simulate/stats/shutdown requests over a Unix \
          socket or TCP, serving connections concurrently with \
          back-pressure, batching pipelined requests onto the execution \
          pool and answering repeats from a content-addressed cache")
    Cmdliner.Term.(
      const run $ addr_flag $ cache_dir_flag $ cache_mem_flag
      $ jobs_flag $ handler_domains_flag $ max_inflight_flag
      $ disk_budget_flag $ default_deadline_flag $ max_deadline_flag
      $ max_batch_flag $ conn_timeout_flag $ drain_deadline_flag)

(* ---- call: one-shot client for scripts, CI and debugging ---- *)

let call_cmd =
  let requests_pos =
    Cmdliner.Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:"JSON request objects, one per argument, sent as one batch.")
  in
  let call_seed_flag =
    Cmdliner.Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seeds the jittered connect backoff, so a scripted retry \
             schedule is reproducible.")
  in
  let run addr seed requests =
    let addr = resolve_addr addr in
    let responses = Serve.Client.call_retry ~addr ~seed requests in
    List.iter print_endline responses;
    (* Responses are single-line JSON objects; a failure always carries
       the literal field "ok":false. Overload rejections get their own
       exit code so scripts can retry instead of giving up. *)
    let failed r = contains r {|"ok":false|} in
    let overloaded r =
      failed r && contains r {|"site":"request.overload"|}
    in
    if List.exists overloaded responses then exit 5
    else if List.exists failed responses then exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "call"
       ~doc:
         "Send requests to a running daemon and print one response per \
          line; exits 5 if any response is an overload rejection, 1 if \
          any other response is ok:false")
    Cmdliner.Term.(
      const run $ addr_flag $ call_seed_flag $ requests_pos)

(* ---- chaos-serve: wire-level fault injection against a live daemon ---- *)

let chaos_serve_cmd =
  let seed_flag =
    Cmdliner.Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Derives every attack in the campaign; the same (seed, cases, \
             addr) replays the same byte streams.")
  in
  let cases_flag =
    Cmdliner.Arg.(
      value & opt int 100
      & info [ "cases" ] ~docv:"N" ~doc:"Attack cases per campaign.")
  in
  let stall_flag =
    Cmdliner.Arg.(
      value & opt float 0.6
      & info [ "stall-s" ] ~docv:"SECONDS"
          ~doc:
            "How long the slow-loris attack holds a partial frame. Set it \
             past the daemon's --conn-timeout-ms to see structured \
             timeouts in the summary.")
  in
  let artifact_flag =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "artifact" ] ~docv:"PATH"
          ~doc:
            "On failure, write a replayable counterexample report (seed, \
             case index, attack, message per failure) to this file.")
  in
  let write_artifact path (summaries : (int * Wirefuzz.summary) list) =
    let buf = Buffer.create 256 in
    List.iter
      (fun (seed, (s : Wirefuzz.summary)) ->
        List.iter
          (fun (f : Wirefuzz.failure) ->
            Buffer.add_string buf
              (Printf.sprintf
                 "addr=%s seed=%d cases=%d case=%d attack=%s %s\n" s.addr
                 seed s.cases f.case_index
                 (Wirefuzz.attack_name f.attack)
                 f.message))
          s.failures)
      summaries;
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc
  in
  let run addr seed cases stall_s artifact =
    let summaries =
      match addr with
      | Some addr ->
        (* Attack an external daemon the operator already started. *)
        [ (seed, Wirefuzz.run ~stall_s ~seed ~cases ~addr ()) ]
      | None ->
        (* Self-contained: spawn an in-process daemon per transport and
           split the case budget across both framings. *)
        let per = max 1 (cases / 2) in
        List.map
          (fun transport ->
            (seed, Wirefuzz.selftest ~seed ~cases:per ~transport ()))
          [ `Unix; `Tcp ]
    in
    List.iter
      (fun (_, s) -> Format.printf "%a@." Wirefuzz.pp_summary s)
      summaries;
    let failed =
      List.exists (fun (_, (s : Wirefuzz.summary)) -> s.failures <> []) summaries
    in
    if failed then begin
      Option.iter (fun p -> write_artifact p summaries) artifact;
      Printf.eprintf "chaos-serve: the daemon broke a wire promise\n";
      exit 1
    end
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "chaos-serve"
       ~doc:
         "Wire-level chaos: drive seeded mutated byte streams (truncated \
          frames, garbage and oversized length prefixes, mid-batch \
          disconnects, slow-loris stalls, corrupted JSON) at a live \
          daemon and check it never crashes, never hangs past the \
          deadline, and still answers a well-formed request \
          byte-identically. With --addr the target is an external \
          daemon; otherwise an in-process daemon is spawned per \
          transport and the case budget split across both. Exits 1 on \
          any broken promise.")
    Cmdliner.Term.(
      const run $ addr_flag $ seed_flag $ cases_flag
      $ stall_flag $ artifact_flag)

(* ---- cache-warm: precompile the registry into a disk cache ---- *)

let cache_warm_cmd =
  let cache_dir_pos =
    Cmdliner.Arg.(
      required
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Disk cache tier to fill — point the daemon at the same DIR.")
  in
  let strategies_flag =
    Cmdliner.Arg.(
      value
      & opt_all string [ "sr" ]
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Strategy to precompile (repeatable; the protocol grammar: \
             sr, baseline, qs-max-reuse, qs-min-depth, qs-best-fidelity, \
             cone, gidnet or a qubit budget). Default: sr, the protocol \
             default.")
  in
  let disk_budget_flag =
    Cmdliner.Arg.(
      value
      & opt (some int) None
      & info [ "disk-budget-bytes" ] ~docv:"BYTES"
          ~doc:"Byte cap applied while warming (oldest entries evicted).")
  in
  let run cache_dir strategies disk_budget_bytes jobs =
    (* Validate the strategy grammar up front — one bad flag should be a
       usage error, not N per-benchmark failures. *)
    List.iter
      (fun s ->
        match Caqr.Pipeline.strategy_of_name s with
        | Ok _ -> ()
        | Error msg ->
          Printf.eprintf "caqr_cli cache-warm: %s\n" msg;
          exit 2)
      strategies;
    (* Warming goes through the server's own handler, so the bytes on
       disk are exactly the bytes a later daemon replays on a hit. *)
    let server =
      Serve.Server.create
        {
          Serve.Server.default_config with
          Serve.Server.cache_dir = Some cache_dir;
          disk_budget_bytes;
          jobs;
        }
    in
    let lines =
      List.concat_map
        (fun (e : Benchmarks.Suite.entry) ->
          List.map
            (fun s ->
              Printf.sprintf {|{"op":"compile","bench":%S,"strategy":%S}|}
                e.Benchmarks.Suite.name s)
            strategies)
        (Benchmarks.Suite.table1 ())
    in
    let responses, _ = Serve.Server.handle_batch server lines in
    let failed = List.filter (fun r -> contains r {|"ok":false|}) responses in
    Printf.printf "caqr_cli cache-warm: %d of %d entries compiled into %s\n%!"
      (List.length responses - List.length failed)
      (List.length responses) cache_dir;
    List.iter (fun r -> Printf.eprintf "cache-warm failed: %s\n" r) failed;
    if failed <> [] then exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "cache-warm"
       ~doc:
         "Precompile the benchmark registry into an on-disk cache tier so \
          a daemon started with the same --cache-dir answers its first \
          requests from cache. Exits 1 if any benchmark failed to \
          compile.")
    Cmdliner.Term.(
      const run $ cache_dir_pos $ strategies_flag $ disk_budget_flag
      $ jobs_flag)

let () =
  let info =
    Cmdliner.Cmd.info "caqr_cli" ~version:Caqr.Version.string
      ~doc:"Compiler-assisted qubit reuse through dynamic circuits"
  in
  let code =
    try
      Cmdliner.Cmd.eval ~catch:false
        (Cmdliner.Cmd.group info
           [ list_cmd; compile_cmd; sweep_cmd; check_cmd; simulate_cmd; verify_cmd; qasmc_cmd; fuzz_cmd; chaos_cmd; serve_cmd; call_cmd; cache_warm_cmd; chaos_serve_cmd ])
    with
    | Guard.Error.Guard_error e | Guard.Error.Budget_exceeded e ->
      (* Structured errors crossing the command boundary are internal
         failures the guard layer DID catch — report and exit 4. *)
      Printf.eprintf "caqr_cli: %s\n" (Guard.Error.to_string e);
      4
  in
  (* Map cmdliner's CLI-error codes onto the documented table: 2 for
     usage errors, 4 for internal ones. *)
  exit (match code with 124 -> 2 | 125 -> 4 | c -> c)
