(* Claim (c) of the paper: qubit reuse improves fidelity. This example
   compiles one benchmark under every strategy, computes the analytic
   estimated success probability (ESP) from the device calibration, and
   validates it against the success rate measured on the noisy simulator.

   Run with: dune exec examples/fidelity_study.exe [-- <benchmark>] *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BV_10" in
  let entry =
    try Benchmarks.Suite.find name
    with Not_found ->
      Printf.eprintf "unknown benchmark %s (see `caqr_cli list`)\n" name;
      exit 1
  in
  let circuit = entry.Benchmarks.Suite.circuit in
  let device = Hardware.Device.mumbai in
  let input = Benchmarks.Suite.input entry in
  (* The ideal outcome, for success-rate scoring. *)
  let ideal = Sim.Executor.distribution ~seed:1 circuit in
  let target = Sim.Counts.top ideal in
  Printf.printf "%s — ESP vs measured success rate (2048 noisy shots)\n\n"
    entry.Benchmarks.Suite.name;
  Printf.printf "%-18s %-8s %-8s %-10s %-10s %s\n" "strategy" "qubits" "swaps"
    "ESP" "success" "duration(dt)";
  List.iter
    (fun strategy ->
      let r = Caqr.Pipeline.compile device strategy input in
      let esp = Transpiler.Esp.of_circuit device r.Caqr.Pipeline.physical in
      let counts =
        Sim.Noise.run ~device ~seed:11 ~shots:2048 r.Caqr.Pipeline.physical
      in
      let success =
        match target with
        | Some k -> Sim.Counts.success_rate counts k
        | None -> Float.nan
      in
      Printf.printf "%-18s %-8d %-8d %-10.4f %-10.3f %d\n"
        (Caqr.Pipeline.strategy_name strategy)
        r.Caqr.Pipeline.stats.Transpiler.Transpile.qubits_used
        r.Caqr.Pipeline.stats.Transpiler.Transpile.swaps esp success
        r.Caqr.Pipeline.stats.Transpiler.Transpile.duration_dt)
    [
      Caqr.Pipeline.Baseline;
      Caqr.Pipeline.Qs_max_reuse;
      Caqr.Pipeline.Qs_min_depth;
      Caqr.Pipeline.Qs_best_fidelity;
      Caqr.Pipeline.Sr;
    ];
  Printf.printf
    "\nESP multiplies per-gate survival probabilities and per-qubit\n\
     decoherence over the schedule; it should rank strategies the same\n\
     way the measured success rate does.\n"
