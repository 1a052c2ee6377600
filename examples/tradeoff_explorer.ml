(* Tradeoff explorer: sweep every reachable qubit count for a benchmark and
   print the logical-depth / compiled-depth / SWAP tradeoff curve — the
   interactive version of the paper's Figs. 3, 13, 14.

   Run with: dune exec examples/tradeoff_explorer.exe [-- <benchmark>]
   where <benchmark> is a Table 1 name (default: Multiply_13), e.g.
   BV_10, CC_10, System_9, QAOA10-0.3. *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "Multiply_13" in
  let entry =
    try Benchmarks.Suite.find name
    with Not_found ->
      Printf.eprintf "unknown benchmark %s; try one of:\n" name;
      List.iter
        (fun e -> Printf.eprintf "  %s\n" e.Benchmarks.Suite.name)
        (Benchmarks.Suite.table1 ());
      exit 1
  in
  Printf.printf "Tradeoff sweep for %s (%s)\n\n" entry.Benchmarks.Suite.name
    entry.Benchmarks.Suite.description;
  let input = Benchmarks.Suite.input entry in
  (match input with
   | Caqr.Pipeline.Commutable g ->
     Printf.printf "coloring bound: %d qubits\n" (Caqr.Commute.min_qubits g)
   | Caqr.Pipeline.Regular _ -> ());
  Printf.printf "%-8s %-12s %-14s %-14s %-8s\n" "qubits" "log.depth"
    "compiled.depth" "duration(dt)" "swaps";
  List.iter
    (fun (r : Caqr.Pipeline.sweep_row) ->
      Printf.printf "%-8d %-12d %-14d %-14d %-8d\n" r.step.usage r.step.depth
        r.stats.Transpiler.Transpile.depth
        r.stats.Transpiler.Transpile.duration_dt
        r.stats.Transpiler.Transpile.swaps)
    (Caqr.Pipeline.sweep_stats Hardware.Device.mumbai input);
  Printf.printf
    "\nReading the table: the sweet spot (paper §4.2.1) is usually a middle\n\
     row — moderate qubit saving with the lowest compiled depth.\n"
