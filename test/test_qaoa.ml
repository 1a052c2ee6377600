(* Unit tests for max-cut, the QAOA ansatz and the optimizer. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let floatc = Alcotest.float 1e-9

let triangle () =
  { Qaoa.Maxcut.graph = Galg.Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ]; name = "tri" }

let square () =
  {
    Qaoa.Maxcut.graph = Galg.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ];
    name = "sq";
  }

(* ---- Maxcut ---- *)

let test_cut_value () =
  let p = triangle () in
  check floatc "empty cut" 0. (Qaoa.Maxcut.cut_value p 0b000);
  check floatc "single vertex" 2. (Qaoa.Maxcut.cut_value p 0b001);
  check floatc "triangle best = 2" 2. (Qaoa.Maxcut.cut_value p 0b011)

let test_brute_force () =
  check floatc "triangle optimum" 2. (Qaoa.Maxcut.brute_force_optimum (triangle ()));
  check floatc "square optimum" 4. (Qaoa.Maxcut.brute_force_optimum (square ()))

let test_generators_named () =
  let p = Qaoa.Maxcut.random ~seed:1 16 ~density:0.3 in
  check bool "name" true (p.Qaoa.Maxcut.name = "rand-16-0.30");
  let q = Qaoa.Maxcut.power_law ~seed:1 16 ~density:0.3 in
  check bool "name" true (q.Qaoa.Maxcut.name = "plaw-16-0.30")

let test_neg_expected_cut () =
  let p = square () in
  let counts = Sim.Counts.create ~num_clbits:4 in
  Sim.Counts.add counts 0b0101;
  (* perfect cut: 4 *)
  check floatc "negated optimum" (-4.) (Qaoa.Maxcut.neg_expected_cut p counts)

(* ---- Ansatz ---- *)

let test_ansatz_structure () =
  let p = square () in
  let c = Qaoa.Ansatz.circuit p ~gammas:[| 0.5 |] ~betas:[| 0.2 |] in
  check int "qubits" 4 c.Quantum.Circuit.num_qubits;
  (* 4 H + 4 rzz + 4 rx + 4 measure *)
  check int "gate count" 16 (Quantum.Circuit.gate_count c);
  check int "rzz per edge" 4 (Quantum.Circuit.two_q_count c)

let test_ansatz_layers () =
  let p = square () in
  let c2 = Qaoa.Ansatz.circuit p ~gammas:[| 0.5; 0.4 |] ~betas:[| 0.2; 0.1 |] in
  check int "two layers of rzz" 8 (Quantum.Circuit.two_q_count c2)

let test_ansatz_layer_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Ansatz.circuit: layer mismatch")
    (fun () ->
      ignore (Qaoa.Ansatz.circuit (square ()) ~gammas:[| 0.5 |] ~betas:[||]))

let test_ansatz_interaction_matches_problem () =
  let p = square () in
  let c = Qaoa.Ansatz.reference p in
  let ig = Quantum.Circuit.interaction_graph c in
  check bool "same edges" true
    (Galg.Graph.edges ig = Galg.Graph.edges p.Qaoa.Maxcut.graph)

let test_ansatz_beats_random_guess () =
  (* At the ring's known-good p=1 parameters (gamma = pi/4, beta = pi/8)
     the expected cut beats the uniform-random expectation (half the
     edges = 2). *)
  let p = square () in
  let c =
    Qaoa.Ansatz.circuit p
      ~gammas:[| -3. *. Float.pi /. 4. |]
      ~betas:[| 3. *. Float.pi /. 8. |]
  in
  let counts = Sim.Executor.run ~seed:3 ~shots:4000 c in
  let e = -.Qaoa.Maxcut.neg_expected_cut p counts in
  check bool "better than random" true (e > 2.5)

(* ---- Optimizer ---- *)

let sphere x = Array.fold_left (fun acc xi -> acc +. (xi *. xi)) 0. x

let test_cobyla_sphere () =
  let t =
    Qaoa.Optimizer.cobyla_lite ~max_evals:200 ~init:[| 2.; -1.5 |] ~rho_start:0.5
      ~rho_end:1e-6 sphere
  in
  check bool "near zero" true (t.Qaoa.Optimizer.best_value < 1e-2)

let test_history_monotone () =
  let t =
    Qaoa.Optimizer.cobyla_lite ~max_evals:60 ~init:[| 1.; 1. |] ~rho_start:0.4
      ~rho_end:1e-6 sphere
  in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> a >= b && nonincreasing rest
    | _ -> true
  in
  check bool "best-so-far never worsens" true (nonincreasing t.Qaoa.Optimizer.history);
  check bool "history nonempty" true (t.Qaoa.Optimizer.history <> [])

let test_optimizer_respects_budget () =
  let calls = ref 0 in
  let f x =
    incr calls;
    sphere x
  in
  ignore
    (Qaoa.Optimizer.cobyla_lite ~max_evals:25 ~init:[| 1.; 2.; 3. |]
       ~rho_start:0.3 ~rho_end:1e-6 f);
  check bool "eval budget" true (!calls <= 30)

let () =
  Alcotest.run "qaoa"
    [
      ( "maxcut",
        [
          Alcotest.test_case "cut value" `Quick test_cut_value;
          Alcotest.test_case "brute force" `Quick test_brute_force;
          Alcotest.test_case "generator names" `Quick test_generators_named;
          Alcotest.test_case "neg expected cut" `Quick test_neg_expected_cut;
        ] );
      ( "ansatz",
        [
          Alcotest.test_case "structure" `Quick test_ansatz_structure;
          Alcotest.test_case "layers" `Quick test_ansatz_layers;
          Alcotest.test_case "layer mismatch" `Quick test_ansatz_layer_mismatch;
          Alcotest.test_case "interaction graph" `Quick test_ansatz_interaction_matches_problem;
          Alcotest.test_case "beats random" `Quick test_ansatz_beats_random_guess;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "cobyla sphere" `Quick test_cobyla_sphere;
          Alcotest.test_case "history monotone" `Quick test_history_monotone;
          Alcotest.test_case "eval budget" `Quick test_optimizer_respects_budget;
        ] );
    ]
