(* The execution pool's determinism contract: byte-identical results for
   any jobs value, submission-ordered merge, first-failure exception
   semantics — plus the three hot paths threaded through it
   (Pipeline.compile, Fuzz.Driver, Sim.Executor). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let jobs_grid = [ 1; 2; 4 ]

(* ---- pool semantics ---- *)

let test_map_matches_sequential () =
  let xs = List.init 37 Fun.id in
  let expect = List.map (fun x -> (x * x) + 1) xs in
  List.iter
    (fun jobs ->
      check (Alcotest.list int)
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (Exec.Pool.map ~jobs (fun x -> (x * x) + 1) xs))
    jobs_grid

let test_empty_task_list () =
  List.iter
    (fun jobs ->
      check (Alcotest.list int)
        (Printf.sprintf "empty at jobs=%d" jobs)
        []
        (Exec.Pool.map ~jobs (fun x -> x) []))
    jobs_grid

let test_jobs_exceed_tasks () =
  check (Alcotest.list int) "3 tasks, 16 jobs" [ 0; 2; 4 ]
    (Exec.Pool.map ~jobs:16 (fun x -> 2 * x) [ 0; 1; 2 ]);
  check (Alcotest.list int) "1 task, 4 jobs" [ 7 ]
    (Exec.Pool.map ~jobs:4 (fun x -> x) [ 7 ])

let test_jobs_clamped () =
  (* Nonsensical values degrade to 1 rather than raising. *)
  check (Alcotest.list int) "jobs=0" [ 1; 2 ]
    (Exec.Pool.map ~jobs:0 (fun x -> x) [ 1; 2 ]);
  check (Alcotest.list int) "jobs=-3" [ 1; 2 ]
    (Exec.Pool.map ~jobs:(-3) (fun x -> x) [ 1; 2 ])

let test_exception_mid_batch () =
  (* Every task runs; the FIRST failing task in submission order wins,
     regardless of which domain hit its exception first. The re-raise
     is a structured Guard_error carrying the failing task's index. *)
  List.iter
    (fun jobs ->
      match
        Exec.Pool.map ~jobs
          (fun x -> if x >= 5 then failwith "boom" else x)
          (List.init 12 Fun.id)
      with
      | _ -> Alcotest.failf "jobs=%d: expected a failure" jobs
      | exception Guard.Error.Guard_error e ->
        check Alcotest.string
          (Printf.sprintf "stage at jobs=%d" jobs)
          "exec.pool" e.Guard.Error.stage;
        check Alcotest.string
          (Printf.sprintf "site at jobs=%d" jobs)
          "pool.task" e.Guard.Error.site;
        check Alcotest.string
          (Printf.sprintf "first failure at jobs=%d" jobs)
          "task 5: boom" e.Guard.Error.detail;
        check bool
          (Printf.sprintf "not recoverable at jobs=%d" jobs)
          false e.Guard.Error.recoverable)
    jobs_grid

let test_poisoned_task_index_stable () =
  (* A task poisoned through a (non-transient) injection site fails with
     the site's name preserved; jobs=1 and jobs=4 report the SAME task
     index. *)
  let detail_at jobs =
    Guard.Inject.arm "route.swap";
    Fun.protect ~finally:Guard.Inject.disarm @@ fun () ->
    match
      Exec.Pool.map ~jobs
        (fun x ->
          if x = 5 then Guard.Inject.hit "route.swap";
          x)
        (List.init 12 Fun.id)
    with
    | _ -> Alcotest.failf "jobs=%d: expected the armed fault to fire" jobs
    | exception Guard.Error.Guard_error e ->
      check Alcotest.string
        (Printf.sprintf "inner site kept at jobs=%d" jobs)
        "route.swap" e.Guard.Error.site;
      e.Guard.Error.detail
  in
  let reference = detail_at 1 in
  check bool "detail names a task" true
    (String.length reference > 7 && String.sub reference 0 7 = "task 5:");
  check Alcotest.string "same index at jobs=4" reference (detail_at 4)

let test_transient_fault_retried () =
  (* The pool.task site is transient: an armed fault fires once, the
     bounded retry re-runs the task, and the batch still succeeds. *)
  List.iter
    (fun jobs ->
      Guard.Inject.arm ~at_hit:6 "pool.task";
      Fun.protect ~finally:Guard.Inject.disarm @@ fun () ->
      let xs = List.init 12 Fun.id in
      check (Alcotest.list int)
        (Printf.sprintf "recovered at jobs=%d" jobs)
        xs
        (Exec.Pool.map ~jobs Fun.id xs);
      check int
        (Printf.sprintf "fault fired once at jobs=%d" jobs)
        1 (Guard.Inject.fired ()))
    jobs_grid

let test_mapi_indices () =
  let xs = [ "a"; "b"; "c"; "d"; "e" ] in
  let expect = List.mapi (fun i s -> Printf.sprintf "%d%s" i s) xs in
  List.iter
    (fun jobs ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "mapi jobs=%d" jobs)
        expect
        (Exec.Pool.mapi ~jobs (fun i s -> Printf.sprintf "%d%s" i s) xs))
    jobs_grid

let test_seeded_streams_stable () =
  (* Task i's stream depends on (seed, i) only — not on jobs. *)
  let draw prng _ = Exec.Prng.int prng 1_000_000 in
  let xs = List.init 23 Fun.id in
  let reference = Exec.Pool.map_seeded ~jobs:1 ~seed:99 draw xs in
  List.iter
    (fun jobs ->
      check (Alcotest.list int)
        (Printf.sprintf "seeded jobs=%d" jobs)
        reference
        (Exec.Pool.map_seeded ~jobs ~seed:99 draw xs))
    jobs_grid;
  (* ... and a different seed gives a different stream. *)
  Alcotest.check bool "seed matters" false
    (reference = Exec.Pool.map_seeded ~jobs:1 ~seed:100 draw xs)

(* ---- hot path 1: Pipeline.compile ---- *)

let entry name = Benchmarks.Suite.find name

let report_fingerprint (r : Caqr.Pipeline.report) =
  ( Quantum.Qasm.to_string
      (fst (Quantum.Circuit.compact_qubits r.Caqr.Pipeline.physical)),
    r.Caqr.Pipeline.stats,
    r.Caqr.Pipeline.reuse_pairs )

let test_pipeline_determinism () =
  let e = entry "BV_10" in
  let input = Caqr.Pipeline.Regular e.Benchmarks.Suite.circuit in
  let device =
    Hardware.Device.heavy_hex_for
      e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits
  in
  List.iter
    (fun strategy ->
      let run jobs =
        report_fingerprint
          (Caqr.Pipeline.compile
             ~options:{ Caqr.Pipeline.default with jobs }
             device strategy input)
      in
      let reference = run 1 in
      List.iter
        (fun jobs ->
          Alcotest.check bool
            (Printf.sprintf "%s jobs=%d byte-identical"
               (Caqr.Pipeline.strategy_name strategy)
               jobs)
            true
            (run jobs = reference))
        jobs_grid)
    [ Caqr.Pipeline.Qs_min_depth; Caqr.Pipeline.Qs_best_fidelity ]

let test_compile_all_matches_sequential () =
  let e = entry "XOR_5" in
  let input = Caqr.Pipeline.Regular e.Benchmarks.Suite.circuit in
  let device =
    Hardware.Device.heavy_hex_for
      e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits
  in
  let strategies =
    [ Caqr.Pipeline.Baseline; Caqr.Pipeline.Qs_max_reuse; Caqr.Pipeline.Sr ]
  in
  let sequential =
    List.map
      (fun s ->
        report_fingerprint (Caqr.Pipeline.compile device s input))
      strategies
  in
  List.iter
    (fun jobs ->
      let fanned =
        List.map report_fingerprint
          (Caqr.Pipeline.compile_all
             ~options:{ Caqr.Pipeline.default with jobs }
             device strategies input)
      in
      Alcotest.check bool
        (Printf.sprintf "fan-out jobs=%d" jobs)
        true (fanned = sequential))
    jobs_grid

let test_sweep_stats_determinism () =
  let e = entry "CC_10" in
  let device =
    Hardware.Device.heavy_hex_for
      e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits
  in
  let input = Caqr.Pipeline.Regular e.Benchmarks.Suite.circuit in
  let reference = Caqr.Pipeline.sweep_stats ~jobs:1 device input in
  Alcotest.check bool "sweep is non-trivial" true (List.length reference > 1);
  List.iter
    (fun jobs ->
      Alcotest.check bool
        (Printf.sprintf "sweep jobs=%d" jobs)
        true
        (Caqr.Pipeline.sweep_stats ~jobs device input = reference))
    jobs_grid

(* Metrics under parallelism: [compile] neither resets nor snapshots the
   process-global registry, so a counter bumped before a fan-out
   survives it, and the counter totals of a [compile_all] are the same
   at jobs = 1 and jobs = 2 (per-task increments commute). Only the
   pool's own [exec.*] counters depend on [jobs]. *)
let test_metrics_under_parallelism () =
  let sentinel = "test.metrics.sentinel" in
  let strategies = List.map snd Caqr.Pipeline.all_strategies in
  let counters e jobs =
    Obs.Metrics.reset ();
    Obs.Metrics.incr sentinel;
    let device =
      Hardware.Device.heavy_hex_for
        e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits
    in
    ignore
      (Caqr.Pipeline.compile_all
         ~options:
           { Caqr.Pipeline.default with jobs; verify = Some Verify.Static }
         device strategies (Benchmarks.Suite.input e));
    check int
      (Printf.sprintf "%s jobs=%d sentinel survives" e.Benchmarks.Suite.name jobs)
      1 (Obs.Metrics.count sentinel);
    List.filter
      (fun (k, _) -> not (String.starts_with ~prefix:"exec." k))
      (Obs.Metrics.snapshot ()).Obs.Metrics.counters
  in
  List.iter
    (fun name ->
      let e = entry name in
      let sequential = counters e 1 in
      check bool (name ^ " compiles count work") true
        (List.length sequential > 1);
      check
        Alcotest.(list (pair string int))
        (name ^ " counters at jobs=1 and jobs=2")
        sequential (counters e 2))
    [ "BV_10"; "Multiply_13"; "QAOA10-0.3" ]

(* ---- hot path 2: Fuzz.Driver ---- *)

let test_fuzz_driver_determinism () =
  let config =
    { Fuzz.Gen.default with Fuzz.Gen.max_qubits = 5; max_gates = 24 }
  in
  let summary jobs =
    Format.asprintf "%a" Fuzz.Driver.pp_summary
      (Fuzz.Driver.run ~config ~jobs ~seed:7 ~cases:24 ())
  in
  let reference = summary 1 in
  List.iter
    (fun jobs ->
      Alcotest.check Alcotest.string
        (Printf.sprintf "fuzz summary jobs=%d" jobs)
        reference (summary jobs))
    jobs_grid

(* ---- hot path 3: Sim.Executor shot-splitting ---- *)

let test_executor_determinism () =
  let module B = Quantum.Circuit.Builder in
  let b = B.create ~num_qubits:3 ~num_clbits:3 in
  B.h b 0;
  B.cx b 0 1;
  B.measure b 0 0;
  B.if_x b 0 2;
  B.measure b 1 1;
  B.measure b 2 2;
  let c = B.build b in
  (* 1300 shots spans several 256-shot batches plus a ragged tail. *)
  let run jobs = Sim.Counts.to_list (Sim.Executor.run ~jobs ~seed:5 ~shots:1300 c) in
  let reference = run 1 in
  Alcotest.check bool "sampled something" true (reference <> []);
  List.iter
    (fun jobs ->
      Alcotest.check
        (Alcotest.list (Alcotest.pair int int))
        (Printf.sprintf "counts jobs=%d" jobs)
        reference (run jobs))
    jobs_grid;
  check int "totals preserved" 1300
    (List.fold_left (fun acc (_, n) -> acc + n) 0 reference)

(* ---- Exec.Crew: long-running workers over a closable queue ---- *)

let test_crew_processes_all_jobs () =
  let processed = Atomic.make 0 in
  let sum = Atomic.make 0 in
  let crew =
    Exec.Crew.create ~domains:3 (fun n ->
        Atomic.incr processed;
        ignore (Atomic.fetch_and_add sum n))
  in
  let jobs = List.init 50 (fun i -> i + 1) in
  List.iter (fun n -> Alcotest.check bool "accepted" true (Exec.Crew.submit crew n)) jobs;
  Exec.Crew.join crew;
  check int "every job handled exactly once" 50 (Atomic.get processed);
  check int "no job lost or duplicated" (50 * 51 / 2) (Atomic.get sum)

let test_crew_close_stops_intake () =
  let crew = Exec.Crew.create ~domains:1 (fun () -> ()) in
  Exec.Crew.close crew;
  Exec.Crew.close crew;
  Alcotest.check bool "submit after close refused" false
    (Exec.Crew.submit crew ());
  Exec.Crew.join crew

let test_crew_survives_handler_exception () =
  let processed = Atomic.make 0 in
  let crew =
    Exec.Crew.create ~domains:2 (fun n ->
        if n = 13 then failwith "poisoned job";
        Atomic.incr processed)
  in
  List.iter (fun n -> ignore (Exec.Crew.submit crew n)) (List.init 20 Fun.id);
  Exec.Crew.join crew;
  (* One job raised; the other 19 must still be handled. *)
  check int "workers outlive a handler exception" 19 (Atomic.get processed)

(* ---- supervision: dead workers respawn under a bounded budget ---- *)

let rec await_respawns crew target k =
  if Exec.Crew.respawns_left crew = target then ()
  else if k = 0 then
    Alcotest.failf "respawn budget stuck at %d (wanted %d)"
      (Exec.Crew.respawns_left crew) target
  else begin
    Unix.sleepf 0.01;
    await_respawns crew target (k - 1)
  end

let test_crew_respawn_restores_capacity () =
  let processed = Atomic.make 0 in
  let respawns_before = Obs.Metrics.count "exec.crew.respawns" in
  let crew =
    Exec.Crew.create ~domains:1 ~respawns:2 (fun n ->
        if n < 0 then failwith "poison";
        Atomic.incr processed)
  in
  check int "budget as configured" 2 (Exec.Crew.respawns_left crew);
  ignore (Exec.Crew.submit crew (-1));
  await_respawns crew 1 500;
  (* The sole worker died; its replacement must keep draining the
     queue, under the same handler. *)
  List.iter (fun n -> ignore (Exec.Crew.submit crew n)) (List.init 10 Fun.id);
  Exec.Crew.join crew;
  check int "jobs after a death still processed" 10 (Atomic.get processed);
  check int "one respawn spent" 1 (Exec.Crew.respawns_left crew);
  check bool "respawn counted" true
    (Obs.Metrics.count "exec.crew.respawns" >= respawns_before + 1)

let test_crew_respawn_budget_exhausts () =
  let crew =
    Exec.Crew.create ~domains:1 ~respawns:1 (fun n ->
        if n < 0 then failwith "poison")
  in
  ignore (Exec.Crew.submit crew (-1));
  await_respawns crew 0 500;
  (* Budget spent: the next death degrades capacity to zero instead of
     spinning — and join must still return, not deadlock. *)
  ignore (Exec.Crew.submit crew (-1));
  Exec.Crew.join crew;
  check int "budget exhausted" 0 (Exec.Crew.respawns_left crew)

let test_crew_no_respawn_when_disabled () =
  let deaths_before = Obs.Metrics.count "exec.crew.deaths" in
  let crew =
    Exec.Crew.create ~domains:1 ~respawns:0 (fun () -> failwith "die")
  in
  ignore (Exec.Crew.submit crew ());
  Exec.Crew.join crew;
  check int "supervision disabled leaves no budget" 0
    (Exec.Crew.respawns_left crew);
  check bool "death still counted" true
    (Obs.Metrics.count "exec.crew.deaths" >= deaths_before + 1)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "empty task list" `Quick test_empty_task_list;
          Alcotest.test_case "jobs > tasks" `Quick test_jobs_exceed_tasks;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
          Alcotest.test_case "exception mid-batch" `Quick test_exception_mid_batch;
          Alcotest.test_case "poisoned task index stable" `Quick test_poisoned_task_index_stable;
          Alcotest.test_case "transient fault retried" `Quick test_transient_fault_retried;
          Alcotest.test_case "mapi indices" `Quick test_mapi_indices;
          Alcotest.test_case "seeded streams stable" `Quick test_seeded_streams_stable;
        ] );
      ( "crew",
        [
          Alcotest.test_case "all jobs processed" `Quick
            test_crew_processes_all_jobs;
          Alcotest.test_case "close stops intake" `Quick
            test_crew_close_stops_intake;
          Alcotest.test_case "survives handler exception" `Quick
            test_crew_survives_handler_exception;
          Alcotest.test_case "respawn restores capacity" `Quick
            test_crew_respawn_restores_capacity;
          Alcotest.test_case "respawn budget exhausts" `Quick
            test_crew_respawn_budget_exhausts;
          Alcotest.test_case "respawns:0 disables supervision" `Quick
            test_crew_no_respawn_when_disabled;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pipeline jobs 1/2/4" `Quick test_pipeline_determinism;
          Alcotest.test_case "compile_all fan-out" `Quick test_compile_all_matches_sequential;
          Alcotest.test_case "sweep_stats jobs 1/2/4" `Quick test_sweep_stats_determinism;
          Alcotest.test_case "metrics jobs 1/2" `Quick test_metrics_under_parallelism;
          Alcotest.test_case "fuzz driver jobs 1/2/4" `Quick test_fuzz_driver_determinism;
          Alcotest.test_case "executor jobs 1/2/4" `Quick test_executor_determinism;
        ] );
    ]
