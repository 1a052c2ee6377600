(* The resilience layer: structured errors, cooperative budgets, fault
   injection, the pool retry, the degradation ladder — and the chaos
   matrix that sweeps every registered site across real benchmarks. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let entry name = Benchmarks.Suite.find name

let input_of name = Benchmarks.Suite.input (entry name)

let device_of name =
  let e = entry name in
  Hardware.Device.heavy_hex_for
    e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- Guard.Error ---- *)

let test_error_of_exn () =
  let e = Guard.Error.of_exn ~stage:"s" (Failure "boom") in
  check string "failure detail" "boom" e.Guard.Error.detail;
  check string "default site" "exn" e.Guard.Error.site;
  let orig = Guard.Error.v ~stage:"a" ~site:"b" "kept" in
  let through =
    Guard.Error.of_exn ~stage:"other" (Guard.Error.Guard_error orig)
  in
  check string "guard errors pass through" "a" through.Guard.Error.stage

let test_protect_converts () =
  (match Guard.Error.protect ~stage:"s" (fun () -> invalid_arg "nope") with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error e ->
    check bool "detail mentions message" true
      (contains e.Guard.Error.detail "nope"));
  check (Alcotest.result int Alcotest.reject) "ok passes through" (Ok 7)
    (match Guard.Error.protect ~stage:"s" (fun () -> 7) with
     | Ok v -> Ok v
     | Error _ -> Alcotest.fail "unexpected error")

let test_protect_reraises_control () =
  Alcotest.check_raises "Exit is never converted" Exit (fun () ->
      ignore (Guard.Error.protect ~stage:"s" (fun () -> raise Exit)))

(* ---- Guard.Budget ---- *)

let expect_budget_trip name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Budget_exceeded" name
  | exception Guard.Error.Budget_exceeded e -> e

let test_ticker_step_limit () =
  let tick = Guard.Budget.ticker ~stage:"t" ~site:"s" ~limit:3 () in
  tick ();
  tick ();
  tick ();
  let e = expect_budget_trip "4th tick" (fun () -> tick ()) in
  check bool "limit named" true
    (contains e.Guard.Error.detail "limit 3")

let test_deadline_trips_matching () =
  let g = Galg.Graph.create 6 in
  List.iter (fun (u, v) -> Galg.Graph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ];
  let e =
    expect_budget_trip "blossom under 0ms deadline" (fun () ->
        Guard.Budget.scoped (Guard.Budget.make ~ms:0 ()) (fun () ->
            Galg.Matching.blossom g))
  in
  check string "site" "match.augment" e.Guard.Error.site

let test_deadline_trips_router () =
  let e = entry "Multiply_13" in
  let device = device_of "Multiply_13" in
  let err =
    expect_budget_trip "router under 0ms deadline" (fun () ->
        Guard.Budget.scoped (Guard.Budget.make ~ms:0 ()) (fun () ->
            Transpiler.Transpile.run device e.Benchmarks.Suite.circuit))
  in
  check string "site" "route.swap" err.Guard.Error.site

let test_deadline_trips_sim () =
  let module B = Quantum.Circuit.Builder in
  let b = B.create ~num_qubits:2 ~num_clbits:2 in
  B.h b 0;
  B.cx b 0 1;
  B.measure b 0 0;
  B.measure b 1 1;
  let c = B.build b in
  let err =
    expect_budget_trip "executor under 0ms deadline" (fun () ->
        Guard.Budget.scoped (Guard.Budget.make ~ms:0 ()) (fun () ->
            Sim.Executor.run ~jobs:1 ~seed:1 ~shots:16 c))
  in
  check string "site" "sim.shot" err.Guard.Error.site

(* A deadline that passes after a batch's draws, while its outcome tree
   is walked: 16 qubits and eight measured levels, each behind a layer
   of rotations on every wire, make the walk of 256 shots last about a
   second (0.85 s on one 2-vCPU core), against a draw phase of
   microseconds. The walk must poll the
   deadline itself and stop, at a branching node, long before it ends. *)
let test_deadline_trips_sim_walk () =
  let n = 16 and levels = 8 in
  let layer k =
    List.init n (fun q -> Quantum.Gate.One_q (Rx (0.3 +. (0.01 *. float_of_int (k + q))), q))
  in
  let c =
    Quantum.Circuit.of_kinds ~num_qubits:n ~num_clbits:levels
      (List.concat
         (List.init levels (fun k ->
              layer k @ [ Quantum.Gate.One_q (H, k); Quantum.Gate.Measure (k, k) ])))
  in
  let t0 = Unix.gettimeofday () in
  let err =
    expect_budget_trip "executor walk under a 50 ms deadline" (fun () ->
        Guard.Budget.scoped (Guard.Budget.make ~ms:50 ()) (fun () ->
            Sim.Executor.run ~jobs:1 ~seed:1 ~shots:256 c))
  in
  check string "tripped inside the walk" "sim.branch" err.Guard.Error.site;
  check bool "stopped soon after the deadline" true (Unix.gettimeofday () -. t0 < 0.5)

let test_deadline_restored () =
  check bool "disarmed before" false (Guard.Budget.has_deadline ());
  (try
     Guard.Budget.scoped (Guard.Budget.make ~ms:0 ()) (fun () ->
         check bool "armed inside" true (Guard.Budget.has_deadline ());
         Guard.Budget.checkpoint ~stage:"t" ~site:"s")
   with Guard.Error.Budget_exceeded _ -> ());
  check bool "disarmed after" false (Guard.Budget.has_deadline ())

(* ---- Guard.Budget: scoped (domain-local) budgets ---- *)

(* A budget that has deterministically expired: checkpoints compare with
   strict [>], so let the clock tick past the 0 ms deadline. *)
let expired_budget () =
  let b = Guard.Budget.make ~ms:0 () in
  Unix.sleepf 0.002;
  b

let test_scoped_trips_and_restores () =
  check bool "disarmed before" false (Guard.Budget.has_deadline ());
  let e =
    expect_budget_trip "expired scoped budget" (fun () ->
        Guard.Budget.scoped (expired_budget ()) (fun () ->
            check bool "armed inside" true (Guard.Budget.has_deadline ());
            Guard.Budget.checkpoint ~stage:"t" ~site:"scoped.site"))
  in
  check string "site" "scoped.site" e.Guard.Error.site;
  check bool "disarmed after, exception path included" false
    (Guard.Budget.has_deadline ())

let test_scoped_unlimited_noop () =
  Guard.Budget.scoped Guard.Budget.unlimited (fun () ->
      check bool "unlimited arms nothing" false (Guard.Budget.has_deadline ());
      Guard.Budget.checkpoint ~stage:"t" ~site:"s")

let test_scoped_nesting_tightens () =
  (* An inner scope can only tighten: installing [unlimited] inside an
     expired budget must not lift the outer deadline. *)
  ignore
    (expect_budget_trip "inner unlimited keeps outer deadline" (fun () ->
         Guard.Budget.scoped (expired_budget ()) (fun () ->
             Guard.Budget.scoped Guard.Budget.unlimited (fun () ->
                 Guard.Budget.checkpoint ~stage:"t" ~site:"nested"))))

let test_scoped_domain_isolation () =
  (* The whole point of scoped budgets: another domain (another request,
     in the service) never sees this domain's deadline. *)
  Guard.Budget.scoped (Guard.Budget.make ~ms:0 ()) (fun () ->
      check bool "armed in this domain" true (Guard.Budget.has_deadline ());
      let other = Domain.spawn (fun () -> Guard.Budget.has_deadline ()) in
      check bool "other domain unaffected" false (Domain.join other))

let test_scoped_current_carries () =
  (* current () captures the effective deadline as a value that can be
     re-installed in a different domain — the Exec.Pool handoff. *)
  Guard.Budget.scoped (expired_budget ()) (fun () ->
      let b = Guard.Budget.current () in
      let tripped =
        Domain.spawn (fun () ->
            Guard.Budget.scoped b (fun () ->
                match Guard.Budget.checkpoint ~stage:"t" ~site:"carried" with
                | () -> false
                | exception Guard.Error.Budget_exceeded _ -> true))
      in
      check bool "captured budget trips in another domain" true
        (Domain.join tripped))

let test_scoped_pool_propagation () =
  let e =
    expect_budget_trip "pool workers inherit the caller's scope" (fun () ->
        Guard.Budget.scoped (expired_budget ()) (fun () ->
            Exec.Pool.map ~jobs:2
              (fun i ->
                Guard.Budget.checkpoint ~stage:"t" ~site:"pool.worker";
                i)
              [ 1; 2; 3 ]))
  in
  (* The pool names the first failing task in submission order. *)
  check bool "failure names task 0" true (contains e.Guard.Error.detail "task 0:")

(* ---- Sim.State cap ---- *)

let test_sim_qubit_cap () =
  (match Sim.State.make 40 with
  | Ok _ -> Alcotest.fail "40 qubits must be refused"
  | Error e ->
    check string "stage" "sim.state" e.Guard.Error.stage;
    check bool "cap named" true (contains e.Guard.Error.detail "cap"));
  (match Sim.State.make (-1) with
  | Ok _ -> Alcotest.fail "negative width must be refused"
  | Error _ -> ());
  (match Sim.State.make 2 with
  | Ok st -> check int "2 qubits allocate" 2 (Sim.State.num_qubits st)
  | Error _ -> Alcotest.fail "2 qubits must fit");
  Sim.State.set_max_qubits 3;
  Fun.protect ~finally:(fun () -> Sim.State.set_max_qubits 24) @@ fun () ->
  check int "cap readable" 3 (Sim.State.max_qubits ());
  (match Sim.State.make 4 with
  | Ok _ -> Alcotest.fail "4 qubits must exceed the lowered cap"
  | Error _ -> ());
  Alcotest.check_raises "init raises the legacy exception"
    (Invalid_argument "State.init: unsupported width") (fun () ->
      ignore (Sim.State.init 4))

(* ---- Guard.Inject ---- *)

let test_inject_unknown_site () =
  Alcotest.check_raises "unknown site"
    (Invalid_argument "Guard.Inject.arm: unknown site \"no.such.site\"")
    (fun () -> Guard.Inject.arm "no.such.site")

let test_inject_single_shot () =
  Guard.Inject.arm ~at_hit:2 "route.swap";
  Fun.protect ~finally:Guard.Inject.disarm @@ fun () ->
  check (Alcotest.option string) "armed" (Some "route.swap")
    (Guard.Inject.armed ());
  Guard.Inject.hit "sr.place" (* other sites pass *);
  Guard.Inject.hit "route.swap" (* hit 1 of 2: passes *);
  check int "not fired yet" 0 (Guard.Inject.fired ());
  (match Guard.Inject.hit "route.swap" with
  | () -> Alcotest.fail "hit 2 must fire"
  | exception Guard.Error.Guard_error e ->
    check string "site" "route.swap" e.Guard.Error.site;
    check bool "non-transient site not recoverable" false
      e.Guard.Error.recoverable);
  check int "fired once" 1 (Guard.Inject.fired ());
  Guard.Inject.hit "route.swap" (* spent: passes again *);
  check int "still once" 1 (Guard.Inject.fired ())

let test_inject_catalog_shape () =
  let sites = Guard.Inject.sites in
  check bool "at least 8 sites" true (List.length sites >= 8);
  let libs =
    List.sort_uniq compare
      (List.map (fun s -> s.Guard.Inject.lib) sites)
  in
  check bool "spans at least 5 libraries" true (List.length libs >= 5);
  check int "names unique"
    (List.length sites)
    (List.length
       (List.sort_uniq compare
          (List.map (fun s -> s.Guard.Inject.name) sites)))

(* ---- degradation ladder ---- *)

let test_ladder_demotes () =
  let device = device_of "XOR_5" in
  let input = input_of "XOR_5" in
  Guard.Inject.arm "sr.place";
  Fun.protect ~finally:Guard.Inject.disarm @@ fun () ->
  let r =
    Caqr.Pipeline.compile
      ~options:{ Caqr.Pipeline.default with Caqr.Pipeline.fallback = true }
      device Caqr.Pipeline.Sr input
  in
  check bool "not compiled by Sr" true
    (r.Caqr.Pipeline.strategy <> Caqr.Pipeline.Sr);
  check int "one demotion recorded" 1 (List.length r.Caqr.Pipeline.degraded);
  let d = List.hd r.Caqr.Pipeline.degraded in
  check bool "failed rung is Sr" true
    (d.Caqr.Pipeline.from_strategy = Caqr.Pipeline.Sr);
  check string "error site" "sr.place" d.Caqr.Pipeline.error.Guard.Error.site

let test_ladder_off_by_default () =
  let device = device_of "XOR_5" in
  let input = input_of "XOR_5" in
  Guard.Inject.arm "sr.place";
  Fun.protect ~finally:Guard.Inject.disarm @@ fun () ->
  match Caqr.Pipeline.compile device Caqr.Pipeline.Sr input with
  | _ -> Alcotest.fail "without fallback the failure must propagate"
  | exception Guard.Error.Guard_error e ->
    check string "raw structured error" "sr.place" e.Guard.Error.site

let test_no_faults_no_degradation () =
  let device = device_of "XOR_5" in
  let input = input_of "XOR_5" in
  let strict = Caqr.Pipeline.compile device Caqr.Pipeline.Sr input in
  let supervised =
    Caqr.Pipeline.compile
      ~options:{ Caqr.Pipeline.default with Caqr.Pipeline.fallback = true }
      device Caqr.Pipeline.Sr input
  in
  check int "no demotions" 0 (List.length supervised.Caqr.Pipeline.degraded);
  check bool "fallback changes nothing when healthy" true
    (Quantum.Qasm.to_string supervised.Caqr.Pipeline.physical
    = Quantum.Qasm.to_string strict.Caqr.Pipeline.physical)

(* A wall-clock trip inside the reuse engine is NOT a ladder event: the
   engine commits its incumbent and returns it tagged Anytime, so the
   compile succeeds on the original rung with zero demotions — the
   ladder only demotes on hard errors. The trip is made deterministic
   rather than left to host speed: a 2 s sleep injected at the fifth
   QS node outlasts the engine's share (0.6) of the 3 s deadline, so the
   checkpoint right after it trips, with four nodes already noted, while
   Multiply_13 leaves routing ample headroom in the time that remains. *)
let test_budget_trip_with_incumbent_is_not_demotion () =
  Obs.Metrics.reset ();
  let device = device_of "Multiply_13" in
  let input = input_of "Multiply_13" in
  Guard.Inject.arm ~at_hit:5 ~mode:(Guard.Inject.Delay_ms 2000) "qs.search";
  let r =
    Fun.protect ~finally:Guard.Inject.disarm @@ fun () ->
    Guard.Budget.scoped
      (Guard.Budget.make ~ms:3000 ())
      (fun () ->
        Caqr.Pipeline.compile
          ~options:{ Caqr.Pipeline.default with Caqr.Pipeline.fallback = true }
          device Caqr.Pipeline.Qs_max_reuse input)
  in
  check bool "anytime quality" false
    (Caqr.Quality.is_exact r.Caqr.Pipeline.quality);
  check bool "still the original rung" true
    (r.Caqr.Pipeline.strategy = Caqr.Pipeline.Qs_max_reuse);
  check int "zero demotions in the report" 0
    (List.length r.Caqr.Pipeline.degraded);
  check int "guard.ladder.demotions untouched" 0
    (Obs.Metrics.count "guard.ladder.demotions");
  check bool "qs.anytime.returns bumped" true
    (Obs.Metrics.count "qs.anytime.returns" >= 1);
  check bool "incumbent beats the baseline width" true
    (r.Caqr.Pipeline.reuse_pairs > 0)

(* ---- parser diagnostics ---- *)

let expect_parse_error name text =
  match Quantum.Qasm_parser.parse text with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name
  | Error e -> e.Guard.Error.detail

let test_parser_diagnostics () =
  let d =
    expect_parse_error "unknown gate" "qubit[2] q;\nwibble q[0];\n"
  in
  check bool "line 2 col 1" true (contains d "line 2, col 1");
  check bool "gate named" true (contains d "wibble");
  let d =
    expect_parse_error "bad index" "qubit[2] q;\nh q[x];\n"
  in
  check bool "bad index located" true (contains d "line 2");
  let d =
    expect_parse_error "truncated measure" "qubit[1] q;\nbit[1] c;\nmeasure q[0];\n"
  in
  check bool "measure arrow diagnostic" true (contains d "line 3");
  let d =
    expect_parse_error "bad declaration" "qubit[oops] q;\n"
  in
  check bool "declaration located" true (contains d "line 1, col 1");
  (* the column points at the statement, not the line start *)
  let d = expect_parse_error "indented" "qubit[2] q;\n   wibble q[0];\n" in
  check bool "col 4 for indented stmt" true (contains d "line 2, col 4")

let test_parser_ok_roundtrip () =
  match Quantum.Qasm_parser.parse "qubit[2] q;\nbit[2] c;\nh q[0];\ncx q[0], q[1];\nc[0] = measure q[0];\n" with
  | Error e -> Alcotest.failf "unexpected error: %s" (Guard.Error.to_string e)
  | Ok c ->
    check int "qubits" 2 c.Quantum.Circuit.num_qubits;
    check int "gates" 3 (Array.length c.Quantum.Circuit.gates)

(* ---- chaos matrix ---- *)

let chaos_benches () =
  [ ("XOR_5", input_of "XOR_5"); ("QAOA5-0.3", input_of "QAOA5-0.3") ]

let test_chaos_contained () =
  let cells = Chaos.run ~seed:1 (chaos_benches ()) in
  check int "full matrix"
    (2 * List.length Guard.Inject.sites)
    (List.length cells);
  List.iter
    (fun (c : Chaos.cell) ->
      match c.Chaos.outcome with
      | Chaos.Uncontained why ->
        Alcotest.failf "site %s escaped on %s: %s"
          c.Chaos.site.Guard.Inject.name c.Chaos.bench why
      | Chaos.Verify_failed why ->
        Alcotest.failf "site %s let a refuted artifact through on %s: %s"
          c.Chaos.site.Guard.Inject.name c.Chaos.bench why
      | _ -> ())
    cells;
  check bool "all contained" true (Chaos.all_contained cells);
  (* the two benches together must reach every registered site *)
  check int "every site fired"
    (List.length Guard.Inject.sites)
    (List.length (Chaos.sites_fired cells))

let test_chaos_deterministic () =
  let render cells = Format.asprintf "%a" Chaos.pp_matrix cells in
  let a = render (Chaos.run ~seed:1 (chaos_benches ())) in
  let b = render (Chaos.run ~seed:1 (chaos_benches ())) in
  check string "same seed, same matrix" a b

(* ---- Guard.Gate: bounded-concurrency admission ---- *)

let test_gate_limit () =
  let g = Guard.Gate.create ~limit:2 () in
  check int "configured limit" 2 (Guard.Gate.limit g);
  check bool "first slot" true (Guard.Gate.try_enter g);
  check bool "second slot" true (Guard.Gate.try_enter g);
  check int "both inflight" 2 (Guard.Gate.inflight g);
  check bool "third rejected, not blocked" false (Guard.Gate.try_enter g);
  Guard.Gate.leave g;
  check bool "released slot re-admits" true (Guard.Gate.try_enter g);
  Guard.Gate.leave g;
  Guard.Gate.leave g;
  check int "drained" 0 (Guard.Gate.inflight g)

let test_gate_unlimited () =
  let g = Guard.Gate.create ~limit:0 () in
  let ok = List.init 100 (fun _ -> Guard.Gate.try_enter g) in
  check bool "limit 0 always admits" true (List.for_all Fun.id ok);
  check int "occupancy still counted" 100 (Guard.Gate.inflight g)

let test_gate_with_slot () =
  let g = Guard.Gate.create ~limit:1 () in
  (match Guard.Gate.with_slot g (fun () -> Guard.Gate.inflight g) with
  | Some n -> check int "slot held inside" 1 n
  | None -> Alcotest.fail "empty gate must admit");
  check int "slot released on exit" 0 (Guard.Gate.inflight g);
  (* ... including the exceptional exit. *)
  (try
     ignore (Guard.Gate.with_slot g (fun () -> failwith "boom"));
     Alcotest.fail "exception must propagate"
   with Failure _ -> ());
  check int "slot released on exception" 0 (Guard.Gate.inflight g);
  check bool "full gate answers None" true
    (Guard.Gate.try_enter g
    && Guard.Gate.with_slot g (fun () -> ()) = None)

let test_gate_rejection_metric () =
  let g = Guard.Gate.create ~reject_metric:"test.gate.reject" ~limit:1 () in
  ignore (Guard.Gate.try_enter g);
  ignore (Guard.Gate.try_enter g);
  ignore (Guard.Gate.try_enter g);
  let s = Obs.Metrics.snapshot () in
  check bool "each rejection counted" true
    (List.exists
       (fun (k, v) -> k = "test.gate.reject" && v >= 2)
       s.Obs.Metrics.counters)

let () =
  Alcotest.run "guard"
    [
      ( "error",
        [
          Alcotest.test_case "of_exn" `Quick test_error_of_exn;
          Alcotest.test_case "protect converts" `Quick test_protect_converts;
          Alcotest.test_case "protect re-raises control" `Quick
            test_protect_reraises_control;
        ] );
      ( "budget",
        [
          Alcotest.test_case "ticker step limit" `Quick test_ticker_step_limit;
          Alcotest.test_case "deadline trips matching" `Quick
            test_deadline_trips_matching;
          Alcotest.test_case "deadline trips router" `Quick
            test_deadline_trips_router;
          Alcotest.test_case "deadline trips sim" `Quick
            test_deadline_trips_sim;
          Alcotest.test_case "executor deadline trips inside a batch's walk" `Quick
            test_deadline_trips_sim_walk;
          Alcotest.test_case "deadline restored" `Quick test_deadline_restored;
          Alcotest.test_case "sim qubit cap" `Quick test_sim_qubit_cap;
        ] );
      ( "scoped-budget",
        [
          Alcotest.test_case "trips and restores" `Quick
            test_scoped_trips_and_restores;
          Alcotest.test_case "unlimited is a no-op" `Quick
            test_scoped_unlimited_noop;
          Alcotest.test_case "nesting tightens" `Quick
            test_scoped_nesting_tightens;
          Alcotest.test_case "domain isolation" `Quick
            test_scoped_domain_isolation;
          Alcotest.test_case "current carries across domains" `Quick
            test_scoped_current_carries;
          Alcotest.test_case "pool propagation" `Quick
            test_scoped_pool_propagation;
        ] );
      ( "gate",
        [
          Alcotest.test_case "limit semantics" `Quick test_gate_limit;
          Alcotest.test_case "unlimited" `Quick test_gate_unlimited;
          Alcotest.test_case "with_slot" `Quick test_gate_with_slot;
          Alcotest.test_case "rejection metric" `Quick
            test_gate_rejection_metric;
        ] );
      ( "inject",
        [
          Alcotest.test_case "unknown site" `Quick test_inject_unknown_site;
          Alcotest.test_case "single shot" `Quick test_inject_single_shot;
          Alcotest.test_case "catalog shape" `Quick test_inject_catalog_shape;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "demotes on fault" `Quick test_ladder_demotes;
          Alcotest.test_case "off by default" `Quick test_ladder_off_by_default;
          Alcotest.test_case "no faults, no degradation" `Quick
            test_no_faults_no_degradation;
          Alcotest.test_case "anytime return is not a demotion" `Slow
            test_budget_trip_with_incumbent_is_not_demotion;
        ] );
      ( "parser",
        [
          Alcotest.test_case "diagnostics carry line+col" `Quick
            test_parser_diagnostics;
          Alcotest.test_case "ok roundtrip" `Quick test_parser_ok_roundtrip;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "matrix contained" `Slow test_chaos_contained;
          Alcotest.test_case "matrix deterministic" `Slow
            test_chaos_deterministic;
        ] );
    ]
