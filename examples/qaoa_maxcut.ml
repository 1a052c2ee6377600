(* QAOA max-cut with commutable-gate qubit reuse: plan reuse chains on the
   problem graph (graph coloring bound, matching scheduler), emit the
   transformed dynamic circuit, and run the hybrid optimization loop on
   both the plain and the reused circuit under device noise.

   Run with: dune exec examples/qaoa_maxcut.exe *)

let () =
  let n = 8 in
  let problem = Qaoa.Maxcut.random ~seed:19 n ~density:0.35 in
  let g = problem.Qaoa.Maxcut.graph in
  Printf.printf "Problem: %s, %d vertices, %d edges, optimum cut = %.0f\n"
    problem.Qaoa.Maxcut.name n (Galg.Graph.size g)
    (Qaoa.Maxcut.brute_force_optimum problem);
  Printf.printf "Graph-coloring qubit bound: %d\n\n" (Caqr.Commute.min_qubits g);

  (* Reuse sweep: qubits vs depth tradeoff for this instance. *)
  Printf.printf "%-8s %-8s %-10s %s\n" "qubits" "depth" "duration" "2q-gates";
  let fewest_qubits steps = List.nth steps (List.length steps - 1) in
  let steps = Caqr.Commute.sweep g in
  List.iter
    (fun (s : Caqr.Engine.step) ->
      Printf.printf "%-8d %-8d %-10d %d\n" s.usage s.depth
        (Quantum.Circuit.duration Quantum.Duration.default s.circuit)
        (Galg.Graph.size g))
    steps;

  (* Pick the last (fewest qubits) sweep point and compare optimization
     runs. *)
  let last = fewest_qubits steps in
  let device = Hardware.Device.mumbai in
  let compile circuit =
    (Transpiler.Transpile.run device circuit).Transpiler.Transpile.physical
  in
  let noisy_energy seed circuit =
    Qaoa.Maxcut.neg_expected_cut problem
      (Sim.Noise.run ~device ~seed ~shots:1024 (compile circuit))
  in
  Printf.printf "\nOptimizing (COBYLA-style, noisy device, 30 rounds each)...\n";
  let optimize name emit =
    let seed = ref 0 in
    let evaluate_params gammas betas =
      incr seed;
      noisy_energy !seed (emit gammas betas)
    in
    (* Drive the optimizer directly over (gamma, beta). *)
    let trace =
      Qaoa.Optimizer.cobyla_lite ~max_evals:30 ~init:[| -0.7; 0.9 |]
        ~rho_start:0.4 ~rho_end:1e-3
        (fun x -> evaluate_params x.(0) x.(1))
    in
    Printf.printf "%-12s best energy %.3f (cut %.3f of optimum %.0f)\n" name
      trace.Qaoa.Optimizer.best_value
      (-.trace.Qaoa.Optimizer.best_value)
      (Qaoa.Maxcut.brute_force_optimum problem);
    trace
  in
  let plain_emit gamma beta =
    Qaoa.Ansatz.circuit problem ~gammas:[| gamma |] ~betas:[| beta |]
  in
  (* The sweep's plan choices never depend on the angles, so a sweep at
     (gamma, beta) ends at the same plan, emitted at those angles. *)
  let reused_emit gamma beta =
    (fewest_qubits (Caqr.Commute.sweep ~gamma ~beta g)).Caqr.Engine.circuit
  in
  let t_plain = optimize "plain" plain_emit in
  let t_reused =
    optimize
      (Printf.sprintf "reused(%dq)" last.Caqr.Engine.usage)
      reused_emit
  in
  Printf.printf "\nConvergence (best-so-far energy per round):\n";
  Printf.printf "%-6s %-10s %s\n" "round" "plain" "reused";
  let rec zip i a b =
    match (a, b) with
    | x :: xs, y :: ys ->
      Printf.printf "%-6d %-10.3f %.3f\n" i x y;
      zip (i + 1) xs ys
    | _ -> ()
  in
  zip 1 t_plain.Qaoa.Optimizer.history t_reused.Qaoa.Optimizer.history
