(* Unit tests for the user-facing pipeline and applicability detector. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mumbai = Hardware.Device.mumbai
let bv input_n = Caqr.Pipeline.Regular (Benchmarks.Bv.circuit input_n)

let test_baseline_no_reuse () =
  let r = Caqr.Pipeline.compile mumbai Caqr.Pipeline.Baseline (bv 6) in
  check int "no pairs" 0 r.Caqr.Pipeline.reuse_pairs;
  check int "full usage" 6 r.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used

let test_max_reuse_minimizes () =
  let r = Caqr.Pipeline.compile mumbai Caqr.Pipeline.Qs_max_reuse (bv 6) in
  check int "2 qubits" 2 r.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used;
  check bool "pairs recorded" true (r.Caqr.Pipeline.reuse_pairs > 0)

let test_min_depth_between () =
  let r = Caqr.Pipeline.compile mumbai Caqr.Pipeline.Qs_min_depth (bv 8) in
  let u = r.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used in
  check bool "between min and max" true (u >= 2 && u <= 8)

let test_min_depth_no_worse_than_extremes () =
  let depth s =
    (Caqr.Pipeline.compile mumbai s (bv 8)).Caqr.Pipeline.stats
      .Transpiler.Transpile.depth
  in
  let dm = depth Caqr.Pipeline.Qs_min_depth in
  check bool "beats max reuse" true (dm <= depth Caqr.Pipeline.Qs_max_reuse);
  check bool "beats baseline" true (dm <= depth Caqr.Pipeline.Baseline)

let test_target_reachable () =
  let r = Caqr.Pipeline.compile mumbai (Caqr.Pipeline.Qs_target 4) (bv 8) in
  check bool "at most 4" true
    (r.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used <= 4)

let test_target_unreachable () =
  Alcotest.check_raises "cannot reach 1"
    (Failure "Pipeline.compile: cannot reach 1 qubits") (fun () ->
      ignore (Caqr.Pipeline.compile mumbai (Caqr.Pipeline.Qs_target 1) (bv 5)))

let test_sr_strategy () =
  let r = Caqr.Pipeline.compile mumbai Caqr.Pipeline.Sr (bv 10) in
  check int "no swaps" 0 r.Caqr.Pipeline.stats.Transpiler.Transpile.swaps;
  check int "2 qubits" 2 r.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used

let test_commutable_input () =
  let g = Galg.Gen.random ~seed:8 8 ~density:0.3 in
  let input = Caqr.Pipeline.Commutable g in
  let base = Caqr.Pipeline.compile mumbai Caqr.Pipeline.Baseline input in
  let maxr = Caqr.Pipeline.compile mumbai Caqr.Pipeline.Qs_max_reuse input in
  check bool "reuse saves qubits" true
    (maxr.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used
    < base.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used)

let test_beneficial_positive () =
  let yes, why = Caqr.Pipeline.beneficial mumbai (bv 6) in
  check bool "bv benefits" true yes;
  check bool "explanation" true (String.length why > 0)

let test_beneficial_negative () =
  (* Complete 3-qubit interaction: no reuse. *)
  let b = Quantum.Circuit.Builder.create ~num_qubits:3 ~num_clbits:0 in
  Quantum.Circuit.Builder.cx b 0 1;
  Quantum.Circuit.Builder.cx b 1 2;
  Quantum.Circuit.Builder.cx b 0 2;
  let yes, _ =
    Caqr.Pipeline.beneficial mumbai
      (Caqr.Pipeline.Regular (Quantum.Circuit.Builder.build b))
  in
  check bool "no benefit" false yes

let test_beneficial_commutable () =
  let g = Galg.Gen.random ~seed:9 10 ~density:0.3 in
  let yes, _ = Caqr.Pipeline.beneficial mumbai (Caqr.Pipeline.Commutable g) in
  check bool "qaoa benefits" true yes

let test_strategy_names () =
  check bool "names distinct" true
    (List.length
       (List.sort_uniq compare
          (List.map Caqr.Pipeline.strategy_name
             [
               Caqr.Pipeline.Baseline;
               Caqr.Pipeline.Qs_max_reuse;
               Caqr.Pipeline.Qs_min_depth;
               Caqr.Pipeline.Qs_target 3;
               Caqr.Pipeline.Sr;
               Caqr.Pipeline.Cone;
               Caqr.Pipeline.Gidnet;
             ]))
    = 7)

let test_cone_strategy () =
  let r = Caqr.Pipeline.compile mumbai Caqr.Pipeline.Cone (bv 10) in
  check int "2 qubits" 2 r.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used;
  check bool "pairs recorded" true (r.Caqr.Pipeline.reuse_pairs > 0)

let test_gidnet_strategy () =
  let r = Caqr.Pipeline.compile mumbai Caqr.Pipeline.Gidnet (bv 10) in
  check int "2 qubits" 2 r.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used;
  check bool "pairs recorded" true (r.Caqr.Pipeline.reuse_pairs > 0)

(* The name grammar is the single strategy surface shared by the CLI and
   the service protocol: every named strategy, and the parameterized
   target spellings, must survive strategy_name -> strategy_of_name
   exactly. *)
let test_strategy_roundtrip () =
  check int "registry covers the named strategies" 7
    (List.length Caqr.Pipeline.all_strategies);
  List.iter
    (fun (name, s) ->
      (match Caqr.Pipeline.strategy_of_name name with
      | Ok s' -> check bool (name ^ " parses to its variant") true (s' = s)
      | Error e -> Alcotest.failf "%s rejected: %s" name e);
      check bool
        (name ^ " spelling is canonical")
        true
        (Caqr.Pipeline.strategy_name s = name))
    Caqr.Pipeline.all_strategies;
  (* Every registered engine and the unnamed [Qs_target] family. *)
  List.iter
    (fun s ->
      let name = Caqr.Pipeline.strategy_name s in
      check bool (name ^ " round-trips") true
        (Caqr.Pipeline.strategy_of_name name = Ok s))
    (List.map fst Caqr.Pipeline.engines
    @ List.map (fun n -> Caqr.Pipeline.Qs_target n) [ 1; 4; 17 ]);
  check bool "bare int is target sugar" true
    (Caqr.Pipeline.strategy_of_name "6" = Ok (Caqr.Pipeline.Qs_target 6));
  match Caqr.Pipeline.strategy_of_name "qs-fastest" with
  | Ok _ -> Alcotest.fail "unknown strategy accepted"
  | Error e ->
    (* The rejection must teach the full grammar. *)
    List.iter
      (fun (name, _) ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        check bool ("error mentions " ^ name) true (contains e name))
      Caqr.Pipeline.all_strategies

let test_physical_semantics_end_to_end () =
  (* Whatever the strategy, the physical circuit must compute BV's secret. *)
  List.iter
    (fun s ->
      let r = Caqr.Pipeline.compile mumbai s (bv 6) in
      let d = Sim.Executor.run ~seed:7 ~shots:32 r.Caqr.Pipeline.physical in
      check int
        (Caqr.Pipeline.strategy_name s ^ " secret")
        32
        (Sim.Counts.get d (Benchmarks.Bv.expected_output 6)))
    [
      Caqr.Pipeline.Baseline;
      Caqr.Pipeline.Qs_max_reuse;
      Caqr.Pipeline.Qs_min_depth;
      Caqr.Pipeline.Sr;
      Caqr.Pipeline.Cone;
      Caqr.Pipeline.Gidnet;
    ]

(* ---- the engine registry ---- *)

let small_qaoa () =
  let g = Galg.Graph.create 6 in
  List.iter
    (fun (u, v) -> Galg.Graph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ];
  Caqr.Pipeline.Commutable g

(* [compile] reports exactly what the registered engine hands back: the
   reuse count and the quality marker pass through untouched, on a
   regular input, a commutable one, and a generated circuit whose input
   already carries mid-circuit measurements. *)
let test_registry_matches_compile () =
  let generated =
    Caqr.Pipeline.Regular
      (Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make 1))
  in
  List.iter
    (fun (s, run) ->
      List.iter
        (fun (label, input) ->
          let a = run mumbai input in
          let r = Caqr.Pipeline.compile mumbai s input in
          let what = Caqr.Pipeline.strategy_name s ^ " on " ^ label in
          check int (what ^ ": reuse_pairs") a.Caqr.Engine.reuses
            r.Caqr.Pipeline.reuse_pairs;
          check bool (what ^ ": quality") true
            (a.Caqr.Engine.quality = r.Caqr.Pipeline.quality))
        [ ("BV_8", bv 8); ("a 6-vertex path", small_qaoa ()); ("seed 1", generated) ])
    Caqr.Pipeline.engines

(* [reuse_pairs] counts the pairs the engine applied, not the mid-circuit
   measurements of the result: generated seed 1 already measures
   mid-circuit and admits no reuse, so both QS strategies report 0 at
   the same width. *)
let test_reuse_pairs_counts_applied () =
  let c = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make 1) in
  let device = Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits in
  let compile s = Caqr.Pipeline.compile device s (Caqr.Pipeline.Regular c) in
  let max_reuse = compile Caqr.Pipeline.Qs_max_reuse in
  let width = Caqr.Reuse.qubit_usage max_reuse.Caqr.Pipeline.logical in
  let target = compile (Caqr.Pipeline.Qs_target width) in
  check bool "input measures mid-circuit" true
    (Quantum.Circuit.mid_circuit_measurements c > 0);
  check int "qs-max-reuse applies no pair" 0 max_reuse.Caqr.Pipeline.reuse_pairs;
  check int "qs-target at the same width agrees"
    target.Caqr.Pipeline.reuse_pairs max_reuse.Caqr.Pipeline.reuse_pairs

(* qs-min-depth picks its report from the same routed rows the
   tradeoff table prints: the first row of minimal compiled depth. *)
let test_min_depth_is_sweep_row () =
  List.iter
    (fun name ->
      let e = Benchmarks.Suite.find name in
      let input = Benchmarks.Suite.input e in
      let best =
        List.fold_left
          (fun best (r : Caqr.Pipeline.sweep_row) ->
            match best with
            | Some (b : Caqr.Pipeline.sweep_row)
              when b.stats.Transpiler.Transpile.depth
                   <= r.stats.Transpiler.Transpile.depth ->
              best
            | _ -> Some r)
          None
          (Caqr.Pipeline.sweep_stats mumbai input)
        |> Option.get
      in
      let report = Caqr.Pipeline.compile mumbai Caqr.Pipeline.Qs_min_depth input in
      check bool (name ^ ": logical is the min-depth row") true
        (report.Caqr.Pipeline.logical = best.step.circuit);
      check bool (name ^ ": physical is the row's") true
        (report.Caqr.Pipeline.physical = best.physical);
      check int (name ^ ": reuse pairs") (List.length best.step.pairs)
        report.Caqr.Pipeline.reuse_pairs)
    [ "Multiply_13"; "QAOA10-0.3" ]

let () =
  Alcotest.run "pipeline"
    [
      ( "strategies",
        [
          Alcotest.test_case "baseline" `Quick test_baseline_no_reuse;
          Alcotest.test_case "max reuse" `Quick test_max_reuse_minimizes;
          Alcotest.test_case "min depth range" `Quick test_min_depth_between;
          Alcotest.test_case "min depth optimal" `Quick test_min_depth_no_worse_than_extremes;
          Alcotest.test_case "min depth is a sweep row" `Quick test_min_depth_is_sweep_row;
          Alcotest.test_case "target reachable" `Quick test_target_reachable;
          Alcotest.test_case "target unreachable" `Quick test_target_unreachable;
          Alcotest.test_case "sr" `Quick test_sr_strategy;
          Alcotest.test_case "cone" `Quick test_cone_strategy;
          Alcotest.test_case "gidnet" `Quick test_gidnet_strategy;
          Alcotest.test_case "commutable" `Quick test_commutable_input;
          Alcotest.test_case "names" `Quick test_strategy_names;
          Alcotest.test_case "name round-trip" `Quick test_strategy_roundtrip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "compile matches engine" `Quick
            test_registry_matches_compile;
          Alcotest.test_case "reuse_pairs counts applied pairs" `Quick
            test_reuse_pairs_counts_applied;
        ] );
      ( "applicability",
        [
          Alcotest.test_case "positive" `Quick test_beneficial_positive;
          Alcotest.test_case "negative" `Quick test_beneficial_negative;
          Alcotest.test_case "commutable" `Quick test_beneficial_commutable;
        ] );
      ( "semantics",
        [ Alcotest.test_case "end to end" `Slow test_physical_semantics_end_to_end ] );
    ]
