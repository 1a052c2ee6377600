(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md experiment index and EXPERIMENTS.md for the
   recorded outcomes) and writes BENCH_caqr.json from the perf, parallel,
   engines and anytime experiments.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only fig3  # one experiment
     dune exec bench/main.exe -- --list       # experiment ids
     dune exec bench/main.exe -- --fast       # skip the micro-benchmarks

   Exits 1 if any experiment counts a violation: a structural check that
   fails, jobs > 1 changing an artifact, the two sweep engines
   disagreeing, or the perf minor-words ratio below 3x. The compilation
   service is checked by test/test_serve.ml and measured by caqrbench/.

   Absolute numbers are simulator-relative; the shapes (who wins, by what
   factor, where crossovers sit) are the reproduction target. *)

let mumbai = Hardware.Device.mumbai

let section id title =
  Printf.printf "\n======================================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "======================================================================\n%!"

(* Every artifact the harness compiles passes the structural validator;
   a violation prints loudly instead of silently contributing a bogus
   number to a table. *)
let structural_violations = ref 0

let check_artifact device ~logical ~physical =
  match Verify.Structural.check_artifact device ~logical ~physical with
  | Verify.Verdict.Inequivalent cex ->
    incr structural_violations;
    Printf.printf "!! STRUCTURAL VIOLATION: %s\n%!" cex.Verify.Verdict.detail
  | _ -> ()

(* The routed tradeoff sweep of one benchmark (paper Tables 1-2, Fig. 13):
   every reuse level compiled onto Mumbai, each row structurally checked
   against its compacted logical circuit. *)
let sweep_rows (e : Benchmarks.Suite.entry) =
  let rows = Caqr.Pipeline.sweep_stats mumbai (Benchmarks.Suite.input e) in
  List.iter
    (fun (r : Caqr.Pipeline.sweep_row) ->
      check_artifact mumbai
        ~logical:(fst (Quantum.Circuit.compact_qubits r.step.circuit))
        ~physical:r.physical)
    rows;
  rows

(* ---------------------------------------------------------------- fig1 *)

let fig1 () =
  section "fig1" "BV qubit-reuse walkthrough (paper Fig. 1)";
  let original = Benchmarks.Bv.circuit 5 in
  let one =
    match Caqr.Qs_caqr.reduce_once original with
    | Some (_, c) -> c
    | None -> assert false
  in
  let minimal = Caqr.Qs_caqr.max_reuse original in
  Printf.printf "%-22s %-8s %-8s %s\n" "version" "qubits" "depth" "mid-circuit measures";
  List.iter
    (fun (name, c) ->
      Printf.printf "%-22s %-8d %-8d %d\n" name (Caqr.Reuse.qubit_usage c)
        (Quantum.Circuit.depth c)
        (Quantum.Circuit.mid_circuit_measurements c))
    [ ("(a) original", original); ("(b) one reuse", one); ("(c) maximal reuse", minimal) ];
  let secret = Benchmarks.Bv.expected_output 5 in
  let ok c = Sim.Counts.get (Sim.Executor.run ~seed:1 ~shots:64 c) secret = 64 in
  Printf.printf "all versions compute the secret: %b\n"
    (ok original && ok one && ok minimal)

(* ---------------------------------------------------------------- fig2 *)

let fig2 () =
  section "fig2" "measure+reset vs measure+conditional-X (paper Fig. 2)";
  let m = Quantum.Duration.default in
  let builtin = Quantum.Duration.measure_reset_builtin m in
  let ours = Quantum.Duration.measure_cond_x m in
  Printf.printf "built-in measure + reset   : %6d dt (%8.1f ns)\n" builtin
    (float_of_int builtin *. Quantum.Duration.ns_per_dt);
  Printf.printf "measure + conditional X    : %6d dt (%8.1f ns)\n" ours
    (float_of_int ours *. Quantum.Duration.ns_per_dt);
  Printf.printf "reduction                  : %5.1f%%  (paper: ~50%%)\n"
    (100. *. (1. -. (float_of_int ours /. float_of_int builtin)))

(* ------------------------------------------------------------ fig3/14 *)

let qaoa_tradeoff_series ~label g =
  Printf.printf "\n[%s] n=%d edges=%d coloring-bound=%d\n" label
    (Galg.Graph.order g) (Galg.Graph.size g) (Caqr.Commute.min_qubits g);
  Printf.printf "%-8s %-10s %-14s %-10s\n" "qubits" "depth" "duration(dt)" "2q-gates";
  let steps =
    List.map
      (fun (s : Caqr.Engine.step) ->
        (s, Quantum.Circuit.duration Quantum.Duration.default s.circuit))
      (Caqr.Commute.sweep ~mode:`Heuristic g)
  in
  (* Every sweep point emits one Rzz per edge. *)
  List.iter
    (fun ((s : Caqr.Engine.step), duration) ->
      Printf.printf "%-8d %-10d %-14d %-10d\n" s.usage s.depth duration
        (Galg.Graph.size g))
    steps;
  (* Headline summary: qubit saving at <= 25% duration growth. *)
  match steps with
  | (base, base_duration) :: _ ->
    let best =
      List.fold_left
        (fun acc ((s : Caqr.Engine.step), duration) ->
          if float_of_int duration <= 1.25 *. float_of_int base_duration then
            min acc s.usage
          else acc)
        base.usage steps
    in
    Printf.printf
      "=> within +25%% duration: %d -> %d qubits (%.0f%% saving)\n" base.usage
      best
      (100. *. (1. -. (float_of_int best /. float_of_int base.usage)))
  | [] -> ()

(* "Density 30%" is ambiguous in the paper. Read as 30% of all vertex
   pairs, a 64-vertex instance carries 605 edges and *no* algorithm can
   go below ~12 qubits (m <= pw*n - pw(pw+1)/2 forces pathwidth >= 11;
   minimum wires = pathwidth + 1) — yet the paper reports "as few as 5",
   which is only possible on much sparser inputs. Both readings are
   reproduced; see EXPERIMENTS.md. *)
let sparse_density n = 0.3 *. float_of_int n /. float_of_int (n * (n - 1) / 2)

let fig3 () =
  section "fig3" "qubit-saving potential, QAOA-64 (paper Fig. 3)";
  qaoa_tradeoff_series ~label:"power-law, dense reading (m = 0.3 C(64,2))"
    (Galg.Gen.power_law ~seed:64 64 ~density:0.3);
  qaoa_tradeoff_series ~label:"random, dense reading"
    (Galg.Gen.random ~seed:64 64 ~density:0.3);
  qaoa_tradeoff_series ~label:"power-law, sparse reading (m = 0.3 n)"
    (Galg.Gen.power_law ~seed:64 64 ~density:(sparse_density 64));
  qaoa_tradeoff_series ~label:"random, sparse reading"
    (Galg.Gen.random ~seed:64 64 ~density:(sparse_density 64))

let fig14 () =
  section "fig14" "QAOA tradeoff across sizes (paper Fig. 14)";
  List.iter
    (fun n ->
      qaoa_tradeoff_series
        ~label:(Printf.sprintf "power-law n=%d d=0.30" n)
        (Galg.Gen.power_law ~seed:n n ~density:0.3);
      qaoa_tradeoff_series
        ~label:(Printf.sprintf "random n=%d d=0.30" n)
        (Galg.Gen.random ~seed:n n ~density:0.3))
    [ 16; 32; 128 ]

(* ---------------------------------------------------------------- fig13 *)

let fig13 () =
  section "fig13" "regular-application tradeoff (paper Fig. 13)";
  List.iter
    (fun name ->
      let e = Benchmarks.Suite.find name in
      Printf.printf "\n[%s]\n" name;
      Printf.printf "%-8s %-12s %-14s %-14s %-8s\n" "qubits" "log.depth"
        "compiled.depth" "duration(dt)" "swaps";
      List.iter
        (fun ({ step; stats = st; _ } : Caqr.Pipeline.sweep_row) ->
          Printf.printf "%-8d %-12d %-14d %-14d %-8d\n" step.usage step.depth
            st.Transpiler.Transpile.depth st.Transpiler.Transpile.duration_dt
            st.Transpiler.Transpile.swaps)
        (sweep_rows e))
    [ "Multiply_13"; "System_9"; "BV_10" ]

(* --------------------------------------------------------------- table1 *)

(* Qubit column = logical wires of the program (the paper's metric);
   [stats.qubits_used] would also count physical qubits touched only by
   routing SWAPs. *)
let print_t1_block title rows =
  Printf.printf "\n-- %s --\n" title;
  Printf.printf "%-14s %-7s %-7s %-13s %-5s\n" "Benchmark" "Qubit" "Depth" "Duration(dt)" "SWAP";
  List.iter
    (fun (name, ({ step; stats = st; _ } : Caqr.Pipeline.sweep_row)) ->
      Printf.printf "%-14s %-7d %-7d %-13d %-5d\n" name step.usage
        st.Transpiler.Transpile.depth st.Transpiler.Transpile.duration_dt
        st.Transpiler.Transpile.swaps)
    rows

(* The earliest sweep row minimal under [key]. *)
let first_min key rows =
  List.fold_left
    (fun best r -> if key r < key best then r else best)
    (List.hd rows) rows

let table1 () =
  section "table1" "QS-CaQR versions vs baseline (paper Table 1)";
  let per_entry =
    List.map
      (fun (e : Benchmarks.Suite.entry) ->
        let rows = sweep_rows e in
        let depth (r : Caqr.Pipeline.sweep_row) = r.stats.Transpiler.Transpile.depth in
        ( e.Benchmarks.Suite.name,
          List.hd rows,
          List.nth rows (List.length rows - 1),
          first_min depth rows ))
      (Benchmarks.Suite.table1 ())
  in
  print_t1_block "Baseline (No Reuse)"
    (List.map (fun (n, b, _, _) -> (n, b)) per_entry);
  print_t1_block "Ours with Maximal Reuse"
    (List.map (fun (n, _, m, _) -> (n, m)) per_entry);
  print_t1_block "Ours with Minimal Depth"
    (List.map (fun (n, _, _, d) -> (n, d)) per_entry);
  (* Headline: average duration overhead of maximal reuse vs baseline. *)
  let duration (r : Caqr.Pipeline.sweep_row) =
    r.stats.Transpiler.Transpile.duration_dt
  in
  let overheads =
    List.map
      (fun (_, b, m, _) ->
        float_of_int (duration m) /. float_of_int (max 1 (duration b)))
      per_entry
  in
  let avg = List.fold_left ( +. ) 0. overheads /. float_of_int (List.length overheads) in
  Printf.printf
    "\n=> maximal-reuse duration vs baseline: %+.1f%% average change (paper: +9.9%%)\n"
    (100. *. (avg -. 1.))

(* --------------------------------------------------------------- table2 *)

let table2 () =
  section "table2" "SR-CaQR vs QS-CaQR(min-SWAP) on Mumbai (paper Table 2)";
  Printf.printf "%-14s | %-22s | %-22s\n" "" "QS-CaQR (MIN-SWAP)" "SR-CaQR";
  Printf.printf "%-14s | %-7s %-6s %-7s | %-7s %-6s %-7s\n" "Benchmark" "Qubit" "SWAP"
    "Dur(K)" "Qubit" "SWAP" "Dur(K)";
  let wins = ref 0 and total = ref 0 in
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let ({ step; stats = qs_min_swap; _ } : Caqr.Pipeline.sweep_row) =
        first_min
          (fun (r : Caqr.Pipeline.sweep_row) ->
            (r.stats.Transpiler.Transpile.swaps, r.stats.Transpiler.Transpile.duration_dt))
          (sweep_rows e)
      in
      let sr =
        match e.Benchmarks.Suite.kind with
        | Benchmarks.Suite.Regular -> Caqr.Sr_caqr.regular mumbai e.Benchmarks.Suite.circuit
        | Benchmarks.Suite.Commutable g -> Caqr.Sr_caqr.commutable mumbai g
      in
      let sr_stats = Transpiler.Transpile.stats_of mumbai sr.Caqr.Sr_caqr.physical in
      incr total;
      if sr_stats.Transpiler.Transpile.swaps <= qs_min_swap.Transpiler.Transpile.swaps
      then incr wins;
      Printf.printf "%-14s | %-7d %-6d %-7.0f | %-7d %-6d %-7.0f\n"
        e.Benchmarks.Suite.name step.usage qs_min_swap.Transpiler.Transpile.swaps
        (float_of_int qs_min_swap.Transpiler.Transpile.duration_dt /. 1000.)
        sr.Caqr.Sr_caqr.qubits_used sr_stats.Transpiler.Transpile.swaps
        (float_of_int sr_stats.Transpiler.Transpile.duration_dt /. 1000.))
    (Benchmarks.Suite.table1 ());
  Printf.printf "\n=> SR-CaQR matches or beats QS(min-SWAP) swaps on %d/%d benchmarks\n"
    !wins !total

(* --------------------------------------------------------------- table3 *)

let table3 () =
  section "table3" "TVD on the noisy device (paper Table 3)";
  Printf.printf "%-14s %-16s %-16s %-12s\n" "Benchmark" "TVD(Baseline)" "TVD(SR-CaQR)"
    "improved?";
  let shots = 256 in
  List.iter
    (fun name ->
      let e = Benchmarks.Suite.find name in
      let c = e.Benchmarks.Suite.circuit in
      let base = (Transpiler.Transpile.run mumbai c).Transpiler.Transpile.physical in
      let sr = (Caqr.Sr_caqr.regular mumbai c).Caqr.Sr_caqr.physical in
      let tvd p seed = Sim.Noise.tvd_vs_ideal ~device:mumbai ~seed ~shots p in
      let t_base = tvd base 101 in
      let t_sr = tvd sr 102 in
      Printf.printf "%-14s %-16.3f %-16.3f %s\n%!" name t_base t_sr
        (if t_sr < t_base then "yes" else "no"))
    [ "Multiply_13"; "BV_10"; "CC_10" ]

(* ------------------------------------------------------------ fig15/16 *)

let qaoa_convergence ~id ~density () =
  section id
    (Printf.sprintf "QAOA-10 convergence, density %.1f (paper Fig. %s)" density
       (if density < 0.4 then "15" else "16"));
  let problem = Qaoa.Maxcut.random ~seed:10 10 ~density in
  let g = problem.Qaoa.Maxcut.graph in
  let optimum = Qaoa.Maxcut.brute_force_optimum problem in
  Printf.printf "optimum cut = %.0f\n" optimum;
  let shots = 256 and rounds = 25 in
  (* Baseline: plain ansatz routed by the baseline transpiler. *)
  let baseline_emit gamma beta =
    let c = Qaoa.Ansatz.circuit problem ~gammas:[| gamma |] ~betas:[| beta |] in
    (Transpiler.Transpile.run mumbai c).Transpiler.Transpile.physical
  in
  (* SR-CaQR: reuse sweet spot + lazy mapping, swap-optimized candidate
     selection (same path as Sr_caqr.commutable). *)
  let sr_qubits = ref 0 in
  let sr_emit gamma beta =
    let r = Caqr.Sr_caqr.commutable ~gamma ~beta mumbai g in
    sr_qubits := r.Caqr.Sr_caqr.qubits_used;
    r.Caqr.Sr_caqr.physical
  in
  let optimize emit seed0 =
    let seed = ref seed0 in
    Qaoa.Optimizer.cobyla_lite ~max_evals:rounds ~init:[| -0.7; 0.9 |] ~rho_start:0.4
      ~rho_end:1e-3 (fun x ->
        incr seed;
        Qaoa.Maxcut.neg_expected_cut problem
          (Sim.Noise.run ~device:mumbai ~seed:!seed ~shots (emit x.(0) x.(1))))
  in
  let t_base = optimize baseline_emit 200 in
  let t_sr = optimize sr_emit 300 in
  Printf.printf "SR-CaQR uses %d qubits (baseline uses 10)\n" !sr_qubits;
  Printf.printf "%-6s %-12s %-12s   (-E[cut], lower is better)\n" "round" "baseline"
    "sr-caqr";
  let rec zip i a b =
    match (a, b) with
    | x :: xs, y :: ys ->
      Printf.printf "%-6d %-12.3f %-12.3f\n" i x y;
      zip (i + 1) xs ys
    | x :: xs, [] ->
      Printf.printf "%-6d %-12.3f %-12s\n" i x "-";
      zip (i + 1) xs []
    | [], y :: ys ->
      Printf.printf "%-6d %-12s %-12.3f\n" i "-" y;
      zip (i + 1) [] ys
    | [], [] -> ()
  in
  zip 1 t_base.Qaoa.Optimizer.history t_sr.Qaoa.Optimizer.history;
  Printf.printf "=> final: baseline %.3f, sr-caqr %.3f (optimum -%.0f)\n"
    t_base.Qaoa.Optimizer.best_value t_sr.Qaoa.Optimizer.best_value optimum

let fig15 () = qaoa_convergence ~id:"fig15" ~density:0.3 ()
let fig16 () = qaoa_convergence ~id:"fig16" ~density:0.5 ()

(* ---------------------------------------------------------------- micro *)

let micro () =
  section "micro" "compiler-pass micro-benchmarks (Bechamel)";
  let open Bechamel in
  let bv10 = Benchmarks.Bv.circuit 10 in
  let qaoa16 = Galg.Gen.random ~seed:16 16 ~density:0.3 in
  let rnd40 = Galg.Gen.random ~seed:40 40 ~density:0.2 in
  let tests =
    [
      Test.make ~name:"reuse.analyze+valid_pairs(BV10)"
        (Staged.stage (fun () ->
             ignore (Caqr.Reuse.valid_pairs (Caqr.Reuse.analyze bv10))));
      Test.make ~name:"qs.search(BV10->2)"
        (Staged.stage (fun () -> ignore (Caqr.Qs_caqr.search_anytime ~target:2 bv10)));
      Test.make ~name:"commute.sweep(QAOA16)"
        (Staged.stage (fun () -> ignore (Caqr.Commute.sweep ~mode:`Heuristic qaoa16)));
      Test.make ~name:"matching.blossom(n=40,d=0.2)"
        (Staged.stage (fun () -> ignore (Galg.Matching.blossom rnd40)));
      Test.make ~name:"router.route(BV10@mumbai)"
        (Staged.stage (fun () -> ignore (Transpiler.Transpile.run mumbai bv10)));
      Test.make ~name:"sr_caqr.regular(BV10@mumbai)"
        (Staged.stage (fun () -> ignore (Caqr.Sr_caqr.regular mumbai bv10)));
      Test.make ~name:"sim.run(BV10,32shots)"
        (Staged.stage (fun () -> ignore (Sim.Executor.run ~seed:1 ~shots:32 bv10)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf "%-36s %s\n" "pass" "time/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let est = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
            let pretty =
              if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
              else Printf.sprintf "%8.0f ns" ns
            in
            Printf.printf "%-36s %s\n%!" name pretty
          | _ -> Printf.printf "%-36s (no estimate)\n%!" name)
        est)
    tests

(* ------------------------------------------------------------------ esp *)

(* The paper's claim (c): reuse improves fidelity. ESP is the analytic
   proxy (§3.2.1); the noisy-simulation success rate of the ideal
   bitstring validates it on the deterministic benchmarks. *)
let esp () =
  section "esp" "estimated success probability: baseline vs SR-CaQR";
  Printf.printf "%-14s %-12s %-12s %-14s %-14s\n" "Benchmark" "ESP(base)"
    "ESP(SR)" "succ(base)" "succ(SR)";
  List.iter
    (fun name ->
      let e = Benchmarks.Suite.find name in
      let c = e.Benchmarks.Suite.circuit in
      let base = (Transpiler.Transpile.run mumbai c).Transpiler.Transpile.physical in
      let sr = (Caqr.Sr_caqr.regular mumbai c).Caqr.Sr_caqr.physical in
      let succ p seed =
        let noisy = Sim.Noise.run ~device:mumbai ~seed ~shots:256 p in
        let ideal = Sim.Executor.distribution ~seed c in
        match Sim.Counts.top ideal with
        | Some k -> Sim.Counts.success_rate noisy k
        | None -> 0.
      in
      Printf.printf "%-14s %-12.4f %-12.4f %-14.3f %-14.3f\n%!" name
        (Transpiler.Esp.of_circuit mumbai base)
        (Transpiler.Esp.of_circuit mumbai sr)
        (succ base 55) (succ sr 56))
    [ "BV_10"; "CC_10"; "XOR_5"; "RD-32" ]

(* ------------------------------------------------------------- ablations *)

(* Fig. 2 end-to-end: what if CaQR used the hardware's built-in reset
   (with its redundant measurement pulse) instead of measure +
   conditional X? Same reuse structure, worse duration and fidelity. *)
let ablation_reset () =
  section "ablation:reset" "built-in reset vs measure + conditional X";
  let reused = Caqr.Qs_caqr.max_reuse (Benchmarks.Bv.circuit 8) in
  let with_builtin_reset (c : Quantum.Circuit.t) =
    Quantum.Circuit.of_kinds ~num_qubits:c.Quantum.Circuit.num_qubits
      ~num_clbits:c.Quantum.Circuit.num_clbits
      (Array.to_list
         (Array.map
            (fun g ->
              match g.Quantum.Gate.kind with
              | Quantum.Gate.If_x (_, q) -> Quantum.Gate.Reset q
              | k -> k)
            c.Quantum.Circuit.gates))
  in
  let builtin = with_builtin_reset reused in
  let model = Quantum.Duration.default in
  Printf.printf "%-28s %-14s %-10s\n" "variant" "duration(dt)" "TVD(noisy)";
  List.iter
    (fun (name, c) ->
      let tvd = Sim.Noise.tvd_vs_ideal ~device:mumbai ~seed:77 ~shots:400 c in
      Printf.printf "%-28s %-14d %-10.3f\n" name (Quantum.Circuit.duration model c) tvd)
    [ ("measure + conditional X", reused); ("built-in reset", builtin) ]

(* QS-CaQR search orderings: pure greedy-by-depth stalls above the true
   minimum on star-shaped circuits; the serial-chain ordering reaches it. *)
let ablation_search () =
  section "ablation:search" "QS-CaQR candidate orderings (greedy vs chain)";
  Printf.printf "%-14s %-14s %-14s %-14s\n" "benchmark" "greedy floor" "chain floor"
    "combined";
  List.iter
    (fun name ->
      let c = (Benchmarks.Suite.find name).Benchmarks.Suite.circuit in
      let floor order =
        let opts = { Caqr.Qs_caqr.default_opts with Caqr.Qs_caqr.order } in
        let rec go target =
          if target < 1 then target + 1
          else
            match Caqr.Qs_caqr.search_anytime ~opts ~target c with
            | Some _ -> go (target - 1)
            | None -> target + 1
        in
        go (Caqr.Reuse.qubit_usage c - 1)
      in
      Printf.printf "%-14s %-14d %-14d %-14d\n" name
        (floor Caqr.Qs_caqr.Score) (floor Caqr.Qs_caqr.Chain)
        (floor Caqr.Qs_caqr.Both))
    [ "BV_10"; "CC_10"; "System_9"; "Multiply_13" ]

(* How robust is the reuse advantage to the noise level? Sweep a global
   error-rate scale and watch the TVD gap between baseline and SR-CaQR. *)
let ablation_noise () =
  section "ablation:noise" "reuse advantage vs noise scale (BV_8)";
  let c = Benchmarks.Bv.circuit 8 in
  let base = (Transpiler.Transpile.run mumbai c).Transpiler.Transpile.physical in
  let sr = (Caqr.Sr_caqr.regular mumbai c).Caqr.Sr_caqr.physical in
  Printf.printf "%-12s %-14s %-14s %-10s\n" "noise scale" "TVD(base)" "TVD(SR)" "gap";
  List.iter
    (fun factor ->
      let device = Hardware.Device.with_noise_scale factor mumbai in
      let tvd p seed = Sim.Noise.tvd_vs_ideal ~device ~seed ~shots:300 p in
      let tb = tvd base 61 and ts = tvd sr 62 in
      Printf.printf "%-12.2f %-14.3f %-14.3f %+-10.3f\n%!" factor tb ts (tb -. ts))
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

(* The paper's proposed future work: replace Edmonds blossom with a
   greedy maximal matching in the commutable scheduler. *)
let ablation_matching () =
  section "ablation:matching" "scheduler matching: blossom vs greedy";
  Printf.printf "%-22s %-16s %-16s\n" "instance" "blossom rounds" "greedy rounds";
  List.iter
    (fun (n, seed) ->
      let g = Galg.Gen.random ~seed n ~density:0.3 in
      let plan =
        match Caqr.Commute.plan_with_budget g ~budget:(max 2 (n - n / 4)) with
        | Some p -> p
        | None -> Caqr.Commute.make g
      in
      let exact = Caqr.Commute.schedule_rounds ~exact:true plan in
      let greedy = Caqr.Commute.schedule_rounds ~exact:false plan in
      Printf.printf "%-22s %-16d %-16d\n"
        (Printf.sprintf "QAOA%d-0.3 (reuse)" n)
        exact greedy)
    [ (10, 1); (16, 2); (20, 3); (24, 4) ]

(* ---------------------------------------------------------------- verify *)

(* Translation validation over the whole registry: semantic (exact or
   probe-based) for everything the simulator affords, structural-only
   for the widest instances. Keeps the evaluation honest — every number
   in the tables above comes from a circuit the validator accepts. *)
let verify_exp () =
  section "verify" "translation validation of every strategy's output";
  Printf.printf "%-14s %-18s %-8s %s\n" "benchmark" "strategy" "level" "verdict";
  let bad = ref 0 in
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let input = Benchmarks.Suite.input e in
      (* Semantic probing of a 2^20+ state vector costs minutes per
         strategy; past 16 program qubits the structural pass carries
         the experiment. *)
      let level =
        if e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits > 16 then
          Verify.Static
        else Verify.Auto
      in
      List.iter
        (fun (name, strategy) ->
          let options =
            { Caqr.Pipeline.default with verify = Some level; seed = 7 }
          in
          let r = Caqr.Pipeline.compile ~options mumbai strategy input in
          let verdict =
            match r.Caqr.Pipeline.verification with
            | Some v -> v
            | None -> Verify.Inconclusive "verification was not run"
          in
          if Verify.Verdict.is_inequivalent verdict then incr bad;
          Printf.printf "%-14s %-18s %-8s %s\n%!" e.Benchmarks.Suite.name name
            (Verify.level_name level)
            (Verify.Verdict.to_string verdict))
        Caqr.Pipeline.all_strategies)
    (Benchmarks.Suite.table1 ());
  Printf.printf "\n=> inequivalent artifacts: %d (target 0)\n" !bad

(* ------------------------------------------------------------- parallel *)

(* The execution-pool experiment: the same work at jobs in {1, 2, 4}
   must produce byte-identical artifacts (the pool's determinism
   contract) while the wall clock drops on multicore hosts. Two loads on
   the perf experiment's largest circuit: the Qs_best_fidelity candidate
   fan-out (transpile per sweep point) and ideal shot sampling (256-shot
   batches). Speedups are relative to jobs=1 and bounded by the host's
   core count — a single-core container reports ~1.0x and that is the
   honest number. *)

type parallel_point = {
  pp_jobs : int;
  pp_compile_s : float;
  pp_sample_s : float;
  pp_identical : bool;
}

type parallel_result = {
  pr_benchmark : string;
  pr_cores : int;
  pr_points : parallel_point list;  (* jobs 1, 2, 4 *)
  pr_compile_speedup_j4 : float;
  pr_sample_speedup_j4 : float;
}

let parallel_cache : parallel_result option ref = ref None

let largest_regular () =
  List.fold_left
    (fun acc (e : Benchmarks.Suite.entry) ->
      match acc with
      | Some (b : Benchmarks.Suite.entry)
        when Quantum.Circuit.gate_count b.Benchmarks.Suite.circuit
             >= Quantum.Circuit.gate_count e.Benchmarks.Suite.circuit ->
        acc
      | _ -> Some e)
    None (Benchmarks.Suite.regular ())
  |> Option.get

let parallel_measurements () =
  match !parallel_cache with
  | Some r -> r
  | None ->
    let e = largest_regular () in
    let input = Caqr.Pipeline.Regular e.Benchmarks.Suite.circuit in
    let sample_shots = 8192 in
    let measure jobs =
      (* Compile: best of 3 repetitions (the candidate fan-out is fast
         enough for scheduler noise to matter). Sampling runs once: at
         ~seconds per run the minimum would triple the experiment for a
         margin it does not need. *)
      let best_compile = ref infinity and report = ref None in
      for _ = 1 to 3 do
        let t0 = Unix.gettimeofday () in
        let r =
          Caqr.Pipeline.compile
            ~options:{ Caqr.Pipeline.default with jobs }
            mumbai Caqr.Pipeline.Qs_best_fidelity input
        in
        best_compile := Float.min !best_compile (Unix.gettimeofday () -. t0);
        report := Some r
      done;
      let r = Option.get !report in
      let qasm =
        Quantum.Qasm.to_string
          (fst (Quantum.Circuit.compact_qubits r.Caqr.Pipeline.physical))
      in
      let t0 = Unix.gettimeofday () in
      let counts =
        Sim.Executor.run ~jobs ~seed:11 ~shots:sample_shots
          r.Caqr.Pipeline.physical
      in
      let sample_s = Unix.gettimeofday () -. t0 in
      (jobs, !best_compile, sample_s, qasm, Sim.Counts.to_list counts)
    in
    let runs = List.map measure [ 1; 2; 4 ] in
    let _, c1, s1, qasm1, counts1 = List.hd runs in
    let points =
      List.map
        (fun (jobs, c, s, qasm, counts) ->
          {
            pp_jobs = jobs;
            pp_compile_s = c;
            pp_sample_s = s;
            pp_identical = qasm = qasm1 && counts = counts1;
          })
        runs
    in
    let speedup_at f j =
      match List.find_opt (fun (jobs, _, _, _, _) -> jobs = j) runs with
      | Some (_, c, s, _, _) -> (c1 /. Float.max 1e-9 c, s1 /. Float.max 1e-9 s) |> f
      | None -> 1.
    in
    let r =
      {
        pr_benchmark = e.Benchmarks.Suite.name;
        pr_cores = Domain.recommended_domain_count ();
        pr_points = points;
        pr_compile_speedup_j4 = speedup_at fst 4;
        pr_sample_speedup_j4 = speedup_at snd 4;
      }
    in
    if not (List.for_all (fun p -> p.pp_identical) points) then begin
      incr structural_violations;
      Printf.printf "!! DETERMINISM VIOLATION: jobs>1 changed the artifact\n%!"
    end;
    parallel_cache := Some r;
    r

let parallel_exp () =
  section "parallel" "deterministic execution pool: jobs 1/2/4 (lib/exec)";
  let r = parallel_measurements () in
  Printf.printf "benchmark %s, %d core(s) recommended by the runtime\n"
    r.pr_benchmark r.pr_cores;
  Printf.printf "%-6s %-14s %-14s %s\n" "jobs" "compile(s)" "sample(s)"
    "identical to jobs=1";
  List.iter
    (fun p ->
      Printf.printf "%-6d %-14.4f %-14.4f %b\n" p.pp_jobs p.pp_compile_s
        p.pp_sample_s p.pp_identical)
    r.pr_points;
  Printf.printf
    "=> jobs=4 speedup: compile %.2fx, sampling %.2fx (bounded by cores)\n"
    r.pr_compile_speedup_j4 r.pr_sample_speedup_j4

(* -------------------------------------------------------------- engines *)

(* Engine-vs-engine matrix: every Table-1 benchmark compiled under the
   no-reuse baseline and each engine of the [Pipeline.engines] registry.
   Cached in a ref so the one measurement feeds both the printed table
   and the BENCH_caqr.json "engines" section. *)

type engines_cell = {
  ec_strategy : string;
  ec_width : int;
  ec_depth : int;
  ec_duration : int;
  ec_swaps : int;
  ec_wall_s : float;
}

type engines_row = { eng_benchmark : string; eng_cells : engines_cell list }

let engines_cache : engines_row list option ref = ref None

let engines_strategies =
  Caqr.Pipeline.Baseline :: List.map fst Caqr.Pipeline.engines

let engines_measurements () =
  match !engines_cache with
  | Some rows -> rows
  | None ->
    let rows =
      List.map
        (fun (e : Benchmarks.Suite.entry) ->
          let input = Benchmarks.Suite.input e in
          let cells =
            List.map
              (fun strategy ->
                let t0 = Unix.gettimeofday () in
                let r = Caqr.Pipeline.compile mumbai strategy input in
                let wall = Unix.gettimeofday () -. t0 in
                check_artifact mumbai
                  ~logical:(fst (Quantum.Circuit.compact_qubits r.Caqr.Pipeline.logical))
                  ~physical:r.Caqr.Pipeline.physical;
                {
                  ec_strategy = Caqr.Pipeline.strategy_name strategy;
                  ec_width = r.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used;
                  ec_depth = r.Caqr.Pipeline.stats.Transpiler.Transpile.depth;
                  ec_duration =
                    r.Caqr.Pipeline.stats.Transpiler.Transpile.duration_dt;
                  ec_swaps = r.Caqr.Pipeline.stats.Transpiler.Transpile.swaps;
                  ec_wall_s = wall;
                })
              engines_strategies
          in
          { eng_benchmark = e.Benchmarks.Suite.name; eng_cells = cells })
        (Benchmarks.Suite.table1 ())
    in
    engines_cache := Some rows;
    rows

let engines_exp () =
  section "engines" "engine-vs-engine width/depth/duration matrix";
  let rows = engines_measurements () in
  Printf.printf "%-14s %-18s %-7s %-7s %-13s %-6s %s\n" "benchmark" "engine"
    "width" "depth" "duration(dt)" "swaps" "wall(s)";
  List.iter
    (fun row ->
      List.iter
        (fun c ->
          Printf.printf "%-14s %-18s %-7d %-7d %-13d %-6d %.3f\n"
            row.eng_benchmark c.ec_strategy c.ec_width c.ec_depth c.ec_duration
            c.ec_swaps c.ec_wall_s)
        row.eng_cells;
      print_newline ())
    rows;
  (* The differential headline: on how many benchmarks do the new
     engines match or beat the QS search's width? *)
  let width_of name row =
    (List.find (fun c -> c.ec_strategy = name) row.eng_cells).ec_width
  in
  let count name =
    List.length
      (List.filter (fun row -> width_of name row <= width_of "qs-max-reuse" row) rows)
  in
  Printf.printf
    "=> width <= qs-max-reuse on %d/%d benchmarks (cone), %d/%d (gidnet)\n"
    (count "cone") (List.length rows) (count "gidnet") (List.length rows)

(* ----------------------------------------------------------------- perf *)

(* The incremental sweep must reproduce the reference sweep exactly
   while doing a fraction of the analysis work.  The comparison runs
   both over every regular benchmark and writes BENCH_caqr.json (schema
   caqr-bench/14) for CI to archive. Next to the timer ratio each row
   carries counted work, which repeats exactly from run to run: the
   analyses derived per sweep (fresh + incremental), the DFS nodes and
   the part of them credited instead of walked again at each found node
   (always 0 for the reference, which walks them), and the minor words
   allocated per sweep. *)

type engine_run = {
  er_steps : Caqr.Engine.step list;
  er_wall_s : float;
  er_analyze_s : float;
  er_analyze_fresh : int;
  er_analyze_incremental : int;
  er_search_nodes : int;
  er_resumed_nodes : int;
  er_minor_words : float;
}

let analyses r = r.er_analyze_fresh + r.er_analyze_incremental

(* Each sweep runs three times and the timings keep the fastest
   repetition: scheduler noise on a shared machine easily exceeds the
   margin being measured, and the minimum is the usual robust estimator
   for CPU-bound work. Steps and counters are deterministic, so they
   come out identical in every repetition. *)
let run_engine sweep c =
  let once () =
    Obs.Metrics.reset ();
    let words0 = Gc.minor_words () in
    let steps = Obs.Metrics.time "perf.wall" @@ fun () -> sweep c in
    let minor_words = Gc.minor_words () -. words0 in
    {
      er_steps = steps;
      er_wall_s = Obs.Metrics.timing "perf.wall";
      er_analyze_s = Obs.Metrics.timing "time.analyze";
      er_analyze_fresh = Obs.Metrics.count "reuse.analyze.fresh";
      er_analyze_incremental = Obs.Metrics.count "reuse.analyze.incremental";
      er_search_nodes = Obs.Metrics.count "qs.search.nodes";
      er_resumed_nodes = Obs.Metrics.count "qs.search.resumed_nodes";
      er_minor_words = minor_words;
    }
  in
  let r = ref (once ()) in
  for _ = 2 to 3 do
    let n = once () in
    r :=
      {
        n with
        er_wall_s = Float.min !r.er_wall_s n.er_wall_s;
        er_analyze_s = Float.min !r.er_analyze_s n.er_analyze_s;
      }
  done;
  !r

let engine_json b r =
  Buffer.add_string b
    (Printf.sprintf
       "{\"wall_s\":%.6f,\"analyze_s\":%.6f,\"analyze_fresh\":%d,\"analyze_incremental\":%d,\"analyses\":%d,\"search_nodes\":%d,\"resumed_nodes\":%d,\"minor_words\":%.0f}"
       r.er_wall_s r.er_analyze_s r.er_analyze_fresh r.er_analyze_incremental
       (analyses r) r.er_search_nodes r.er_resumed_nodes r.er_minor_words)

(* -------------------------------------------------------------- anytime *)

(* The quality/time dial: the QS engine under shrinking wall-clock
   budgets on the large corpus. Each point runs the full anytime search
   inside a scoped budget and records the incumbent's width — the curve
   these rows trace is the contract the ISSUE's dial sells: more time,
   never a wider circuit. *)

type any_point = {
  ap_budget_ms : int;
  ap_width : int;
  ap_pairs : int;
  ap_quality : string;
  ap_wall_s : float;
}

type any_row = {
  ar_benchmark : string;
  ar_qubits : int;
  ar_points : any_point list;
}

let anytime_budgets_ms = [ 150; 400; 1000; 2500 ]

let anytime_benchmarks =
  [
    "qaoa-powerlaw-100";
    "qaoa-powerlaw-250";
    "cuccaro-128";
    "qft-layered-100";
    "rand-dyn-100";
  ]

let anytime_measurements () =
  List.map
    (fun name ->
      let g = Option.get (Benchmarks.Large.find_opt name) in
      let c = g.Benchmarks.Large.build () in
      let points =
        List.map
          (fun ms ->
            Obs.Metrics.reset ();
            let a =
              Obs.Metrics.time "perf.anytime" @@ fun () ->
              Guard.Budget.scoped (Guard.Budget.make ~ms ()) (fun () ->
                  Caqr.Qs_caqr.max_reuse_anytime c)
            in
            {
              ap_budget_ms = ms;
              ap_width = a.Caqr.Engine.width;
              ap_pairs = a.Caqr.Engine.reuses;
              ap_quality = Caqr.Quality.name a.Caqr.Engine.quality;
              ap_wall_s = Obs.Metrics.timing "perf.anytime";
            })
          anytime_budgets_ms
      in
      {
        ar_benchmark = name;
        ar_qubits = c.Quantum.Circuit.num_qubits;
        ar_points = points;
      })
    anytime_benchmarks

let anytime_exp () =
  section "anytime" "QS width vs wall-clock budget on the large corpus";
  Printf.printf "%-18s %-7s" "benchmark" "qubits";
  List.iter
    (fun ms -> Printf.printf " %9s" (Printf.sprintf "%dms" ms))
    anytime_budgets_ms;
  print_newline ();
  List.iter
    (fun r ->
      Printf.printf "%-18s %-7d" r.ar_benchmark r.ar_qubits;
      List.iter
        (fun p ->
          Printf.printf " %9s"
            (Printf.sprintf "%d%s" p.ap_width
               (if p.ap_quality = "exact" then "*" else "")))
        r.ar_points;
      print_newline ())
    (anytime_measurements ());
  Printf.printf "   (* = exact: the search completed inside the budget)\n"

(* The commutable sweep kernel on Table 1's QAOA graphs from 10
   vertices up: [time.commute] per sweep (fastest of three) and the
   minor words the last sweep allocates, which repeat exactly. The words are
   gated on QAOA25-0.3: at most [commute_words_budget] per sweep. *)

type commute_row = {
  cr_benchmark : string;
  cr_vertices : int;
  cr_rows : int;
  cr_time_s : float;
  cr_minor_words : float;
}

let commute_gate_benchmark = "QAOA25-0.3"
let commute_words_budget = 40_960.

let commute_measurements () =
  List.filter_map
    (fun (e : Benchmarks.Suite.entry) ->
      match e.Benchmarks.Suite.kind with
      | Benchmarks.Suite.Commutable g when Galg.Graph.order g >= 10 ->
        let once () =
          Obs.Metrics.reset ();
          let words0 = Gc.minor_words () in
          let steps = Caqr.Commute.sweep g in
          let words = Gc.minor_words () -. words0 in
          (List.length steps, Obs.Metrics.timing "time.commute", words)
        in
        let _, t1, _ = once () in
        let _, t2, _ = once () in
        let rows, t3, words = once () in
        Some
          {
            cr_benchmark = e.Benchmarks.Suite.name;
            cr_vertices = Galg.Graph.order g;
            cr_rows = rows;
            cr_time_s = Float.min t1 (Float.min t2 t3);
            cr_minor_words = words;
          }
      | _ -> None)
    (Benchmarks.Suite.table1 ())

let commute_report () =
  Printf.printf "\n%-12s %-8s %-5s %-14s %s\n" "commutable" "vertices" "rows"
    "time.commute" "minor words/sweep";
  let rows = commute_measurements () in
  List.iter
    (fun r ->
      Printf.printf "%-12s %-8d %-5d %-14s %.0f\n" r.cr_benchmark r.cr_vertices
        r.cr_rows
        (Printf.sprintf "%.3f ms" (r.cr_time_s *. 1000.))
        r.cr_minor_words)
    rows;
  (match List.find_opt (fun r -> r.cr_benchmark = commute_gate_benchmark) rows with
   | Some r when r.cr_minor_words <= commute_words_budget ->
     Printf.printf "=> %s sweep: %.0f minor words (budget %.0f)\n"
       commute_gate_benchmark r.cr_minor_words commute_words_budget
   | Some r ->
     incr structural_violations;
     Printf.printf "!! PERF VIOLATION: %s sweep allocates %.0f minor words (budget %.0f)\n%!"
       commute_gate_benchmark r.cr_minor_words commute_words_budget
   | None ->
     incr structural_violations;
     Printf.printf "!! PERF VIOLATION: no %s sweep measured\n%!"
       commute_gate_benchmark);
  rows

(* The QS search's counted-work gate: minor words per incremental
   [Qs_caqr.sweep] of Multiply_13, at most [qs_words_budget], set 10%
   over the 35,537 it once allocated on one in-place analysis cursor per
   search; it allocates 36,245 now (233,804 when every DFS child copied
   its parent's analysis). *)
let qs_gate_benchmark = "Multiply_13"
let qs_words_budget = 39_089.

(* The static verifier's counted-work gate: minor words of one
   [Verify.run Static] on Multiply_13's [qs-max-reuse] artifact, at most
   [verify_words_budget], 10% over the 1,861 it allocates, after
   one warm run (76,927 while [check_pairs] rebuilt a [Quantum.Dag],
   list successor arrays and a set-based Kahn per pair, and the
   single-circuit checks built operand lists per gate). *)
let verify_words_budget = 2_048.

let verify_words () =
  let c = (Benchmarks.Suite.find qs_gate_benchmark).Benchmarks.Suite.circuit in
  let device = Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits in
  let artifact = Caqr.Qs_caqr.max_reuse_anytime c in
  let report =
    Caqr.Pipeline.compile device Caqr.Pipeline.Qs_max_reuse
      (Caqr.Pipeline.Regular c)
  in
  let subject =
    {
      Verify.original = c;
      logical = report.Caqr.Pipeline.logical;
      physical = report.Caqr.Pipeline.physical;
      device;
      pairs =
        Option.map
          (List.map (fun (p : Caqr.Reuse.pair) ->
               { Verify.Structural.src = p.Caqr.Reuse.src; dst = p.Caqr.Reuse.dst }))
          artifact.Caqr.Engine.pairs;
      commutable = None;
    }
  in
  ignore (Verify.run Verify.Static subject);
  let words0 = Gc.minor_words () in
  let verdict = Verify.run Verify.Static subject in
  let words = Gc.minor_words () -. words0 in
  if not (Verify.Verdict.is_equivalent verdict) then begin
    incr structural_violations;
    Printf.printf "!! VIOLATION: %s qs-max-reuse artifact fails static verification\n%!"
      qs_gate_benchmark
  end;
  if words <= verify_words_budget then
    Printf.printf "=> %s static verification: %.0f minor words (budget %.0f)\n"
      qs_gate_benchmark words verify_words_budget
  else begin
    incr structural_violations;
    Printf.printf
      "!! PERF VIOLATION: %s static verification allocates %.0f minor words (budget %.0f)\n%!"
      qs_gate_benchmark words verify_words_budget
  end;
  words

(* The root analysis's counted-work gate: minor words of one
   [Reuse.analyze] of cuccaro-256, at most [root_words_budget]. The
   qubit reach rows come from one reverse sweep over the DAG; the
   gate-level O(n^2) closure it replaced allocated about 8.06M words. *)
let root_gate_benchmark = "cuccaro-256"
let root_words_budget = 1_000_000.

let root_analyze_words () =
  let g = Option.get (Benchmarks.Large.find_opt root_gate_benchmark) in
  let c = g.Benchmarks.Large.build () in
  let words0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Caqr.Reuse.analyze c));
  let words = Gc.minor_words () -. words0 in
  if words <= root_words_budget then
    Printf.printf "=> %s root Reuse.analyze: %.0f minor words (budget %.0f)\n"
      root_gate_benchmark words root_words_budget
  else begin
    incr structural_violations;
    Printf.printf
      "!! PERF VIOLATION: %s root Reuse.analyze allocates %.0f minor words (budget %.0f)\n%!"
      root_gate_benchmark words root_words_budget
  end;
  words

(* The routing path's counted-work gate: minor words of
   [Transpile.run_compact] (compact plus [Transpile.run]) over the sweep
   rows of QAOA25-0.3 (the rows [qs-min-depth] and [qs-best-fidelity]
   route), at most [route_words_budget]. The rows are routed once before
   the count, so it leaves out first-use set-up and reads the domain's
   warm routing workspace: what remains is the returned circuits and
   stats (72,775 words while every route allocated its own buffers and
   the compacted input). Budget: 10% over the measured 25,007. *)
let route_gate_benchmark = "QAOA25-0.3"
let route_words_budget = 27_508.

(* The device and sweep rows of [route_gate_benchmark]. *)
let gate_rows () =
  let e = Benchmarks.Suite.find route_gate_benchmark in
  ( Hardware.Device.heavy_hex_for e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits,
    List.map (fun (s : Caqr.Engine.step) -> s.circuit)
      (Caqr.Pipeline.steps (Benchmarks.Suite.input e)) )

let route_words () =
  let device, circuits = gate_rows () in
  let route_all () =
    List.fold_left
      (fun gates c ->
        let r = Transpiler.Transpile.run_compact device c in
        gates + Quantum.Circuit.gate_count r.Transpiler.Transpile.physical)
      0 circuits
  in
  ignore (route_all ());
  let words0 = Gc.minor_words () in
  let gates = route_all () in
  let words = Gc.minor_words () -. words0 in
  let per_gate = words /. float_of_int (max 1 gates) in
  if words <= route_words_budget then
    Printf.printf
      "=> %s routing (%d rows, %d physical gates): %.0f minor words, %.1f per gate (budget %.0f)\n"
      route_gate_benchmark (List.length circuits) gates words per_gate route_words_budget
  else begin
    incr structural_violations;
    Printf.printf
      "!! PERF VIOLATION: %s routing allocates %.0f minor words (budget %.0f)\n%!"
      route_gate_benchmark words route_words_budget
  end;
  (words, per_gate)

(* The SR mapper's counted-work gate: minor words of [Sr_caqr.regular]
   over the same sweep rows of QAOA25-0.3 (the commutable SR path maps a
   few of them), at most [sr_words_budget], after one warm pass: 59,537
   expected (14.1 per physical gate), 3,094,184 while each placement
   scanned every gate for partners and each SWAP built lists, a hash
   table and a queue. *)
let sr_words_budget = 65_491.

let sr_words () =
  let device, circuits = gate_rows () in
  let map_all () =
    List.fold_left
      (fun gates c ->
        gates + Quantum.Circuit.gate_count (Caqr.Sr_caqr.regular device c).physical)
      0 circuits
  in
  ignore (map_all ());
  let words0 = Gc.minor_words () in
  let gates = map_all () in
  let words = Gc.minor_words () -. words0 in
  let per_gate = words /. float_of_int (max 1 gates) in
  if words <= sr_words_budget then
    Printf.printf
      "=> %s SR mapping (%d rows, %d physical gates): %.0f minor words, %.1f per gate (budget %.0f)\n"
      route_gate_benchmark (List.length circuits) gates words per_gate sr_words_budget
  else begin
    incr structural_violations;
    Printf.printf
      "!! PERF VIOLATION: %s SR mapping allocates %.0f minor words (budget %.0f)\n%!"
      route_gate_benchmark words sr_words_budget
  end;
  (words, per_gate)

(* The pair engines' counted-work gates: minor words of one
   [Gidnet_caqr.run] and one [Cone_caqr.run] on rand-dyn-100, after one
   warm run, at most [gidnet_words_budget] and [cone_words_budget], 10%
   over what the flat engines allocate, 8,978 and 10,268 (the list-based
   engines they replaced, kept as test/gidnet_ref.ml and
   test/cone_ref.ml, allocated 3,397,854 and 71,107). *)
let pair_gate_benchmark = "rand-dyn-100"
let gidnet_words_budget = 9_876.
let cone_words_budget = 11_295.

let pair_engine_words () =
  let c =
    (Option.get (Benchmarks.Large.find_opt pair_gate_benchmark)).Benchmarks.Large.build ()
  in
  let gate name run budget =
    ignore (run c);
    let words0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (run c));
    let words = Gc.minor_words () -. words0 in
    if words <= budget then
      Printf.printf "=> %s %s run: %.0f minor words (budget %.0f)\n" pair_gate_benchmark
        name words budget
    else begin
      incr structural_violations;
      Printf.printf
        "!! PERF VIOLATION: %s %s run allocates %.0f minor words (budget %.0f)\n%!"
        pair_gate_benchmark name words budget
    end;
    words
  in
  let gidnet = gate "GidNET" Caqr.Gidnet_caqr.run gidnet_words_budget in
  let cone = gate "cone" Caqr.Cone_caqr.run cone_words_budget in
  (gidnet, cone)

(* Inline-request resolution's counted-work gate: the minor words the
   daemon spends on an inline QASM-3 request before any engine runs —
   parse, digest and [Device.heavy_hex_for] — on one fixed 36-qubit
   [rand_dyn] source, after one warm call, at most
   [serve_resolve_budget]: 1,974 expected (the returned 132-gate circuit
   and its construction, most of it), 55,545 while each width rebuilt
   its device (30,224, 22.5k of them in the list-based all-pairs BFS),
   the parser copied and re-split every statement (16,712) and the
   digest formatted each gate with [Printf] (8,609). *)
let resolve_gate_qubits = 36
let serve_resolve_budget = 2_171.

let serve_resolve_words () =
  let src =
    Quantum.Qasm.to_string
      (Benchmarks.Large.rand_dyn ~seed:resolve_gate_qubits resolve_gate_qubits)
  in
  let resolve () =
    match Quantum.Qasm_parser.parse src with
    | Ok c ->
      ignore (Sys.opaque_identity (Quantum.Circuit.digest c));
      ignore
        (Sys.opaque_identity (Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits));
      Quantum.Circuit.gate_count c
    | Error e -> failwith e.Guard.Error.detail
  in
  ignore (resolve ());
  let words0 = Gc.minor_words () in
  let gates = resolve () in
  let words = Gc.minor_words () -. words0 in
  if words <= serve_resolve_budget then
    Printf.printf
      "=> rand-dyn-%d inline resolution (%d gates, %d bytes): %.0f minor words (budget %.0f)\n"
      resolve_gate_qubits gates (String.length src) words serve_resolve_budget
  else begin
    incr structural_violations;
    Printf.printf
      "!! PERF VIOLATION: rand-dyn-%d inline resolution allocates %.0f minor words (budget %.0f)\n%!"
      resolve_gate_qubits words serve_resolve_budget
  end;
  (gates, words)

(* The outcome-tree walker's counted-work gate: minor words of one
   256-shot [Sim.Executor.run] plus one exact [Verify.Equiv.check] of
   QAOA10-0.3's baseline artifact against its logical circuit, after one
   warm call, at most [sim_words_budget], 10% over the 37,914 they
   allocate, with the state-vector passes the walks made
   (["sim.amplitude_passes"], 9,173). *)
let sim_gate_benchmark = "QAOA10-0.3"
let sim_words_budget = 41_712.

let sim_words () =
  let e = Benchmarks.Suite.find sim_gate_benchmark in
  let c = e.Benchmarks.Suite.circuit in
  let device = Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits in
  let report =
    Caqr.Pipeline.compile device Caqr.Pipeline.Baseline (Benchmarks.Suite.input e)
  in
  let physical = report.Caqr.Pipeline.physical in
  let run () =
    ignore (Sys.opaque_identity (Sim.Executor.run ~jobs:1 ~seed:1 ~shots:256 physical));
    Verify.Equiv.check ~original:report.Caqr.Pipeline.logical ~transformed:physical ()
  in
  ignore (run ());
  Obs.Metrics.reset ();
  let words0 = Gc.minor_words () in
  let verdict = run () in
  let words = Gc.minor_words () -. words0 in
  let passes = Obs.Metrics.count "sim.amplitude_passes" in
  if not (Verify.Verdict.is_equivalent verdict) then begin
    incr structural_violations;
    Printf.printf "!! VIOLATION: %s baseline artifact fails the exact check\n%!"
      sim_gate_benchmark
  end;
  if words <= sim_words_budget then
    Printf.printf
      "=> %s 256-shot simulate + exact check: %.0f minor words (budget %.0f), %d amplitude passes\n"
      sim_gate_benchmark words sim_words_budget passes
  else begin
    incr structural_violations;
    Printf.printf
      "!! PERF VIOLATION: %s simulate + exact check allocates %.0f minor words (budget %.0f)\n%!"
      sim_gate_benchmark words sim_words_budget
  end;
  (words, passes)

(* The large-corpus QS gate: minor and major words of one
   [Qs_caqr.max_reuse_anytime] of qaoa-powerlaw-250 at a 25-node cap per
   search, both orderings, with the DFS nodes it counts, after one warm
   call and from an empty minor heap, so counts repeat within 0.01%. The
   Table-1 gates run on circuits of at most 25 qubits; this one sees
   what only a 250-qubit search pays for (the candidate sort and the
   reach rows, most of the major words). Budgets: 10% over the largest
   of three counts, 224,280 minor and 8,513,326 major words (377 nodes,
   width 225). *)
let large_qs_benchmark = "qaoa-powerlaw-250"
let large_qs_opts = { Caqr.Qs_caqr.budget = 25; order = Caqr.Qs_caqr.Both }
let large_qs_minor_budget = 246_708.
let large_qs_major_budget = 9_364_659.

let large_qs_words () =
  let c = (Option.get (Benchmarks.Large.find_opt large_qs_benchmark)).Benchmarks.Large.build () in
  let run () = Caqr.Qs_caqr.max_reuse_anytime ~opts:large_qs_opts c in
  ignore (run ());
  Obs.Metrics.reset ();
  Gc.minor ();
  let minor0, _, major0 = Gc.counters () in
  let a = run () in
  let minor1, _, major1 = Gc.counters () in
  let minor = minor1 -. minor0 and major = major1 -. major0 in
  let nodes = Obs.Metrics.count "qs.search.nodes" in
  let within = minor <= large_qs_minor_budget && major <= large_qs_major_budget in
  Printf.printf
    "=> %s QS search (budget %d, both orders; width %d, %d nodes): %.0f minor words (budget %.0f), %.0f major words (budget %.0f)\n"
    large_qs_benchmark large_qs_opts.budget a.Caqr.Engine.width nodes minor
    large_qs_minor_budget major large_qs_major_budget;
  if not within then begin
    incr structural_violations;
    Printf.printf "!! PERF VIOLATION: %s QS search allocates over its budget\n%!"
      large_qs_benchmark
  end;
  (nodes, a.Caqr.Engine.width, minor, major)

let perf () =
  section "perf" "incremental vs reference sweep (BENCH_caqr.json)";
  let ratio num den = num /. Float.max 1e-9 den in
  Printf.printf "%-14s %-7s %-11s %-11s %-11s %-9s %-9s %-9s %-10s %s\n"
    "benchmark" "gates" "inc wall(s)" "frs wall(s)" "work ratio" "speedup"
    "inc anl" "frs anl" "inc Mword" "identical";
  let rows =
    List.map
      (fun (e : Benchmarks.Suite.entry) ->
        let c = e.Benchmarks.Suite.circuit in
        let inc = run_engine (fun c -> Caqr.Qs_caqr.sweep c) c in
        let fresh = run_engine (fun c -> Fuzz.Qs_ref.sweep c) c in
        let identical = inc.er_steps = fresh.er_steps in
        let work = ratio fresh.er_analyze_s inc.er_analyze_s in
        let speedup = ratio fresh.er_wall_s inc.er_wall_s in
        Printf.printf
          "%-14s %-7d %-11.4f %-11.4f %-11.2f %-9.2f %-9d %-9d %-10.3f %b\n%!"
          e.Benchmarks.Suite.name
          (Quantum.Circuit.gate_count c)
          inc.er_wall_s fresh.er_wall_s work speedup (analyses inc)
          (analyses fresh) (inc.er_minor_words /. 1e6) identical;
        (e, inc, fresh, identical, work, speedup))
      (Benchmarks.Suite.regular ())
  in
  let le = largest_regular () in
  let _, linc, lfresh, _, lwork, lspeed =
    List.find
      (fun ((e : Benchmarks.Suite.entry), _, _, _, _, _) ->
        e.Benchmarks.Suite.name = le.Benchmarks.Suite.name)
      rows
  in
  (* The gate counts work: minor words repeat exactly from run to run,
     while the timer ratios move with the host's load. *)
  let lwords = ratio lfresh.er_minor_words linc.er_minor_words in
  Printf.printf
    "\n=> largest benchmark %s: %.1fx fewer minor words (target >= 3x), %.1fx less analyze time, %.1fx wall speedup\n"
    le.Benchmarks.Suite.name lwords lwork lspeed;
  if lwords < 3. then begin
    incr structural_violations;
    Printf.printf "!! PERF VIOLATION: minor-words ratio below 3x\n%!"
  end;
  (match
     List.find_opt
       (fun ((e : Benchmarks.Suite.entry), _, _, _, _, _) ->
         e.Benchmarks.Suite.name = qs_gate_benchmark)
       rows
   with
   | Some (_, inc, _, _, _, _) when inc.er_minor_words <= qs_words_budget ->
     Printf.printf "=> %s sweep: %.0f minor words (budget %.0f)\n"
       qs_gate_benchmark inc.er_minor_words qs_words_budget
   | Some (_, inc, _, _, _, _) ->
     incr structural_violations;
     Printf.printf
       "!! PERF VIOLATION: %s sweep allocates %.0f minor words (budget %.0f)\n%!"
       qs_gate_benchmark inc.er_minor_words qs_words_budget
   | None ->
     incr structural_violations;
     Printf.printf "!! PERF VIOLATION: no %s sweep measured\n%!"
       qs_gate_benchmark);
  let qs_words =
    match
      List.find_opt
        (fun ((e : Benchmarks.Suite.entry), _, _, _, _, _) ->
          e.Benchmarks.Suite.name = qs_gate_benchmark)
        rows
    with
    | Some (_, inc, _, _, _, _) -> inc.er_minor_words
    | None -> nan
  in
  let verify_words = verify_words () in
  let root_words = root_analyze_words () in
  let route_words, route_per_gate = route_words () in
  let sr_words, sr_per_gate = sr_words () in
  let gidnet_words, cone_words = pair_engine_words () in
  let resolve_gates, resolve_words = serve_resolve_words () in
  let sim_words, sim_passes = sim_words () in
  let lqs_nodes, lqs_width, lqs_minor, lqs_major = large_qs_words () in
  let all_identical = List.for_all (fun (_, _, _, id, _, _) -> id) rows in
  Printf.printf "=> engines agree on every sweep: %b\n" all_identical;
  if not all_identical then incr structural_violations;
  let commute = commute_report () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"caqr-bench/15\",\"suite\":[";
  List.iteri
    (fun i (e, inc, fresh, identical, work, speedup) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"benchmark\":%S,\"gates\":%d,\"incremental\":"
           e.Benchmarks.Suite.name
           (Quantum.Circuit.gate_count e.Benchmarks.Suite.circuit));
      engine_json b inc;
      Buffer.add_string b ",\"fresh\":";
      engine_json b fresh;
      Buffer.add_string b
        (Printf.sprintf
           ",\"identical_output\":%b,\"analyze_work_ratio\":%.3f,\"wall_speedup\":%.3f}"
           identical work speedup))
    rows;
  Buffer.add_string b
    (Printf.sprintf
       "],\"headline\":{\"largest_benchmark\":%S,\"analyze_work_ratio\":%.3f,\"wall_speedup\":%.3f,\"minor_words_ratio\":%.3f}"
       le.Benchmarks.Suite.name lwork lspeed lwords);
  (* caqr-bench/15: the large-corpus QS search's nodes, minor and major
     words and their gates; [route_words_budget] reads the warm routing
     workspace. *)
  Buffer.add_string b
    (Printf.sprintf
       ",\"large_qs_words\":{\"benchmark\":%S,\"node_budget\":%d,\"width\":%d,\"nodes\":%d,\"minor_words\":%.0f,\"minor_budget\":%.0f,\"major_words\":%.0f,\"major_budget\":%.0f}"
       large_qs_benchmark large_qs_opts.budget lqs_width lqs_nodes lqs_minor
       large_qs_minor_budget lqs_major large_qs_major_budget);
  (* caqr-bench/14: the outcome-tree walker's minor words and its gate. *)
  Buffer.add_string b
    (Printf.sprintf
       ",\"sim_words_budget\":{\"benchmark\":%S,\"minor_words\":%.0f,\"amplitude_passes\":%d,\"budget\":%.0f}"
       sim_gate_benchmark sim_words sim_passes sim_words_budget);
  (* caqr-bench/13: inline-request resolution's minor words and its gate. *)
  Buffer.add_string b
    (Printf.sprintf
       ",\"serve_resolve_words\":{\"source\":\"rand-dyn-%d\",\"gates\":%d,\"minor_words\":%.0f,\"budget\":%.0f}"
       resolve_gate_qubits resolve_gates resolve_words serve_resolve_budget);
  (* caqr-bench/12: the pair engines' minor words and their gates. *)
  Buffer.add_string b
    (Printf.sprintf
       ",\"pair_engine_words\":{\"benchmark\":%S,\"gidnet\":{\"minor_words\":%.0f,\"budget\":%.0f},\"cone\":{\"minor_words\":%.0f,\"budget\":%.0f}}"
       pair_gate_benchmark gidnet_words gidnet_words_budget cone_words cone_words_budget);
  (* caqr-bench/11: the static verifier's minor words and their gate. *)
  Buffer.add_string b
    (Printf.sprintf
       ",\"verify_words_budget\":{\"benchmark\":%S,\"minor_words\":%.0f,\"budget\":%.0f}"
       qs_gate_benchmark verify_words verify_words_budget);
  (* caqr-bench/10: the SR mapper's minor words and their gate. *)
  Buffer.add_string b
    (Printf.sprintf
       ",\"sr_words_budget\":{\"benchmark\":%S,\"minor_words\":%.0f,\"words_per_gate\":%.1f,\"budget\":%.0f}"
       route_gate_benchmark sr_words sr_per_gate sr_words_budget);
  (* caqr-bench/9: the routing path's minor words and their gate. *)
  Buffer.add_string b
    (Printf.sprintf
       ",\"route_words_budget\":{\"benchmark\":%S,\"minor_words\":%.0f,\"words_per_gate\":%.1f,\"budget\":%.0f}"
       route_gate_benchmark route_words route_per_gate route_words_budget);
  (* caqr-bench/8: suite rows carry [resumed_nodes] where they carried
     the memo tree's [cache_hits]/[cache_misses].
     caqr-bench/7: one root analysis's minor words and their gate. *)
  Buffer.add_string b
    (Printf.sprintf
       ",\"root_analyze\":{\"benchmark\":%S,\"minor_words\":%.0f,\"budget\":%.0f}"
       root_gate_benchmark root_words root_words_budget);
  (* caqr-bench/6: the QS search's minor-words gate; caqr-bench/11:
     [minor_words] is the sweep's, next to the [budget]. *)
  Buffer.add_string b
    (Printf.sprintf
       ",\"qs_words_budget\":{\"benchmark\":%S,\"minor_words\":%.0f,\"budget\":%.0f}"
       qs_gate_benchmark qs_words qs_words_budget);
  (* caqr-bench/5: the commutable sweep kernel per QAOA graph. *)
  Buffer.add_string b ",\"commute\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"benchmark\":%S,\"vertices\":%d,\"rows\":%d,\"time_commute_s\":%.6f,\"minor_words\":%.0f}"
           r.cr_benchmark r.cr_vertices r.cr_rows r.cr_time_s r.cr_minor_words))
    commute;
  Buffer.add_string b
    (Printf.sprintf "],\"commute_words_budget\":{\"benchmark\":%S,\"minor_words\":%.0f}"
       commute_gate_benchmark commute_words_budget);
  (* caqr-bench/2: the execution-pool section (jobs sweep on the largest
     circuit, byte-identity check, speedups vs jobs=1). *)
  let par = parallel_measurements () in
  Buffer.add_string b
    (Printf.sprintf ",\"parallel\":{\"benchmark\":%S,\"cores\":%d,\"points\":["
       par.pr_benchmark par.pr_cores);
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"jobs\":%d,\"compile_s\":%.6f,\"sample_s\":%.6f,\"identical\":%b}"
           p.pp_jobs p.pp_compile_s p.pp_sample_s p.pp_identical))
    par.pr_points;
  Buffer.add_string b
    (Printf.sprintf
       "],\"compile_speedup_j4\":%.3f,\"sample_speedup_j4\":%.3f}"
       par.pr_compile_speedup_j4 par.pr_sample_speedup_j4);
  (* caqr-bench/3: the cross-engine matrix (every Table-1 benchmark under
     baseline/qs/sr/cone/gidnet). *)
  let eng = engines_measurements () in
  Buffer.add_string b ",\"engines\":[";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"benchmark\":%S,\"strategies\":[" row.eng_benchmark);
      List.iteri
        (fun j c ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "{\"strategy\":%S,\"width\":%d,\"depth\":%d,\"duration_dt\":%d,\"swaps\":%d,\"wall_s\":%.6f}"
               c.ec_strategy c.ec_width c.ec_depth c.ec_duration c.ec_swaps
               c.ec_wall_s))
        row.eng_cells;
      Buffer.add_string b "]}")
    eng;
  Buffer.add_string b "]";
  (* caqr-bench/4: the anytime quality/time dial (QS width vs wall
     budget on the large corpus). *)
  let any = anytime_measurements () in
  Buffer.add_string b ",\"anytime\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"benchmark\":%S,\"qubits\":%d,\"points\":["
           r.ar_benchmark r.ar_qubits);
      List.iteri
        (fun j p ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "{\"budget_ms\":%d,\"width\":%d,\"pairs\":%d,\"quality\":%S,\"wall_s\":%.6f}"
               p.ap_budget_ms p.ap_width p.ap_pairs p.ap_quality p.ap_wall_s))
        r.ar_points;
      Buffer.add_string b "]}")
    any;
  Buffer.add_string b "]}";
  Buffer.add_char b '\n';
  let oc = open_out "BENCH_caqr.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "=> wrote BENCH_caqr.json\n"

(* ----------------------------------------------------------------- main *)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig13", fig13);
    ("fig14", fig14);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig15", fig15);
    ("fig16", fig16);
    ("esp", esp);
    ("ablation:reset", ablation_reset);
    ("ablation:search", ablation_search);
    ("ablation:matching", ablation_matching);
    ("ablation:noise", ablation_noise);
    ("verify", verify_exp);
    ("parallel", parallel_exp);
    ("engines", engines_exp);
    ("perf", perf);
    ("anytime", anytime_exp);
    ("micro", micro);
  ]

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--list" args then
    List.iter (fun (id, _) -> print_endline id) experiments
  else begin
    let only =
      let rec find = function
        | "--only" :: id :: _ -> Some id
        | _ :: rest -> find rest
        | [] -> None
      in
      find args
    in
    let fast = List.mem "--fast" args in
    let t0 = Sys.time () in
    List.iter
      (fun (id, f) ->
        let skip =
          (match only with Some o -> o <> id | None -> false)
          || (fast && id = "micro")
        in
        if not skip then f ())
      experiments;
    if !structural_violations > 0 then
      Printf.printf "\n!! %d structural violation(s) — see above\n"
        !structural_violations;
    Printf.printf "\n(total cpu: %.1f s)\n" (Sys.time () -. t0);
    if !structural_violations > 0 then exit 1
  end
