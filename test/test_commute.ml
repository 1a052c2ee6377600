(* Unit tests for the commutable-gate (QAOA) reuse machinery. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let square () = Galg.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ]
let star5 () = Galg.Graph.of_edges 5 (List.init 4 (fun i -> (4, i)))
let path4 () = Galg.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ]

let test_min_qubits_coloring () =
  check int "square (even cycle) = 2" 2 (Caqr.Commute.min_qubits (square ()));
  check int "star = 2" 2 (Caqr.Commute.min_qubits (star5 ()));
  check int "triangle = 3" 3
    (Caqr.Commute.min_qubits (Galg.Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ]))

let test_plan_initial () =
  let p = Caqr.Commute.make (square ()) in
  check int "usage = n" 4 (Caqr.Commute.usage p);
  check int "no pairs" 0 (List.length (Caqr.Commute.pairs p));
  check (Alcotest.list int) "singleton chain" [ 2 ] (Caqr.Commute.chain p 2)

let test_valid_merge_conditions () =
  let p = Caqr.Commute.make (square ()) in
  (* 0 and 1 interact: invalid. 0 and 2 do not: valid. *)
  check bool "adjacent invalid" false (Caqr.Commute.valid_merge p ~src:0 ~dst:1);
  check bool "non-adjacent valid" true (Caqr.Commute.valid_merge p ~src:0 ~dst:2)

let test_merge_updates_chains () =
  let p = Caqr.Commute.make (square ()) in
  let p' = Caqr.Commute.merge p ~src:0 ~dst:2 in
  check int "usage drops" 3 (Caqr.Commute.usage p');
  check (Alcotest.list int) "chain [0;2]" [ 0; 2 ] (Caqr.Commute.chain p' 0);
  (* Copy-on-write: original untouched. *)
  check int "original intact" 4 (Caqr.Commute.usage p)

let test_merge_invalid_raises () =
  let p = Caqr.Commute.make (square ()) in
  Alcotest.check_raises "invalid merge"
    (Invalid_argument "Commute.merge: invalid pair") (fun () ->
      ignore (Caqr.Commute.merge p ~src:0 ~dst:1))

let test_chain_independence_enforced () =
  (* P4: chain [0;2] then try to add 1 (adjacent to both) -> invalid;
     3 is adjacent to 2 -> also invalid; so usage floor is 3. *)
  let p = Caqr.Commute.make (path4 ()) in
  let p' = Caqr.Commute.merge p ~src:0 ~dst:2 in
  check bool "1 conflicts" false (Caqr.Commute.valid_merge p' ~src:2 ~dst:1);
  check bool "3 conflicts with 2" false (Caqr.Commute.valid_merge p' ~src:2 ~dst:3)

let test_cycle_detection () =
  (* The deadlock example: wires [a=0,b=1], [c=2,d=3] with edges a-d and
     c-b. Merging (0,1) then (2,3) must be rejected. *)
  let g = Galg.Graph.of_edges 4 [ (0, 3); (2, 1) ] in
  let p = Caqr.Commute.make g in
  let p1 = Caqr.Commute.merge p ~src:0 ~dst:1 in
  check bool "second merge closes a cycle" false
    (Caqr.Commute.valid_merge p1 ~src:2 ~dst:3);
  (* The compatible orientation works. *)
  check bool "reverse orientation fine" true
    (Caqr.Commute.valid_merge p1 ~src:3 ~dst:2)

let test_schedule_rounds_parallelism () =
  (* A perfect matching of 2 disjoint edges schedules in 1 round. *)
  let g = Galg.Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  check int "1 round" 1 (Caqr.Commute.schedule_rounds (Caqr.Commute.make g));
  (* A path of 3 edges needs 2 rounds. *)
  check int "2 rounds" 2 (Caqr.Commute.schedule_rounds (Caqr.Commute.make (path4 ())))

let test_schedule_rounds_with_reuse_serializes () =
  (* square with (0 -> 2): 2's edges wait for 0's. *)
  let p = Caqr.Commute.merge (Caqr.Commute.make (square ())) ~src:0 ~dst:2 in
  check bool "more rounds than plain" true
    (Caqr.Commute.schedule_rounds p
    >= Caqr.Commute.schedule_rounds (Caqr.Commute.make (square ())))

let test_handoff_through_gateless_vertex () =
  (* Chain 0 -> 2 -> 3 where 2 has no gates: 3's gate must wait until 2
     (and so 0) has handed the wire over, not start beside 0's gate. *)
  let g = Galg.Graph.of_edges 5 [ (0, 1); (3, 4) ] in
  let p = Caqr.Commute.merge (Caqr.Commute.make g) ~src:0 ~dst:2 in
  let p = Caqr.Commute.merge p ~src:2 ~dst:3 in
  check int "chain serializes the gates" 2 (Caqr.Commute.schedule_rounds p);
  check int "chain-load bound" 2 (Caqr.Commute.rounds_lower_bound p);
  check bool "exactly equivalent" true
    (Verify.Equiv.check
       ~original:(Caqr.Commute.emit (Caqr.Commute.make g))
       ~transformed:(Caqr.Commute.emit p) ()
    = Verify.Verdict.Equivalent)

let test_emit_structure () =
  let g = square () in
  let c = Caqr.Commute.emit (Caqr.Commute.make g) in
  check int "rzz per edge" 4 (Quantum.Circuit.two_q_count c);
  check int "all vertices measured" 4
    (Array.fold_left
       (fun acc gate ->
         match gate.Quantum.Gate.kind with
         | Quantum.Gate.Measure _ -> acc + 1
         | _ -> acc)
       0 c.Quantum.Circuit.gates);
  check int "four wires" 4 (Caqr.Reuse.qubit_usage c)

let test_emit_reuse_compresses_wires () =
  let p = Caqr.Commute.merge (Caqr.Commute.make (square ())) ~src:0 ~dst:2 in
  let c = Caqr.Commute.emit p in
  check int "three wires" 3 (Caqr.Reuse.qubit_usage c);
  check int "reset present" 1 (Quantum.Circuit.mid_circuit_measurements c)

let test_emit_energy_preserved () =
  (* The transformed circuit must produce the same max-cut energy as the
     plain ansatz at identical parameters. *)
  let g = Galg.Gen.random ~seed:21 7 ~density:0.35 in
  let problem = { Qaoa.Maxcut.graph = g; name = "t" } in
  let plain = Caqr.Commute.emit (Caqr.Commute.make g) in
  let steps = Caqr.Commute.sweep g in
  let last = List.nth steps (List.length steps - 1) in
  let reused = last.Caqr.Engine.circuit in
  check bool "wires saved" true
    (Caqr.Reuse.qubit_usage reused < Caqr.Reuse.qubit_usage plain);
  let e c seed =
    Qaoa.Maxcut.neg_expected_cut problem (Sim.Executor.run ~seed ~shots:6000 c)
  in
  let e0 = e plain 31 and e1 = e reused 32 in
  check bool "energies agree" true (Float.abs (e0 -. e1) < 0.25)

let test_sweep_trajectory () =
  let g = Galg.Gen.random ~seed:5 10 ~density:0.3 in
  let steps = Caqr.Commute.sweep g in
  let usages = List.map (fun (s : Caqr.Engine.step) -> s.usage) steps in
  check int "starts at n" 10 (List.hd usages);
  let rec decreasing = function
    | a :: (b :: _ as r) -> a > b && decreasing r
    | _ -> true
  in
  check bool "strictly decreasing" true (decreasing usages);
  (* Reaches at most a couple above the coloring bound. *)
  let final = List.nth usages (List.length usages - 1) in
  check bool "near coloring bound" true
    (final <= Caqr.Commute.min_qubits g + 2)

let test_sweep_modes_agree_on_floor () =
  let g = Galg.Gen.random ~seed:6 8 ~density:0.3 in
  let floor mode =
    let steps = Caqr.Commute.sweep ~mode g in
    (List.nth steps (List.length steps - 1)).Caqr.Engine.usage
  in
  check bool "heuristic close to exact" true
    (abs (floor `Exact - floor `Heuristic) <= 2)

let test_emit_respects_gamma_beta () =
  let g = square () in
  let c = Caqr.Commute.emit ~gamma:1.1 ~beta:0.4 (Caqr.Commute.make g) in
  let found = ref false in
  Array.iter
    (fun gate ->
      match gate.Quantum.Gate.kind with
      | Quantum.Gate.Rzz (th, _, _) -> if Float.abs (th -. 1.1) < 1e-9 then found := true
      | _ -> ())
    c.Quantum.Circuit.gates;
  check bool "gamma propagated" true !found

let () =
  Alcotest.run "commute"
    [
      ( "plan",
        [
          Alcotest.test_case "min qubits" `Quick test_min_qubits_coloring;
          Alcotest.test_case "initial" `Quick test_plan_initial;
          Alcotest.test_case "valid merge" `Quick test_valid_merge_conditions;
          Alcotest.test_case "merge chains" `Quick test_merge_updates_chains;
          Alcotest.test_case "merge invalid" `Quick test_merge_invalid_raises;
          Alcotest.test_case "independence" `Quick test_chain_independence_enforced;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "parallelism" `Quick test_schedule_rounds_parallelism;
          Alcotest.test_case "reuse serializes" `Quick test_schedule_rounds_with_reuse_serializes;
          Alcotest.test_case "hand-off through gateless vertex" `Quick
            test_handoff_through_gateless_vertex;
        ] );
      ( "emit",
        [
          Alcotest.test_case "structure" `Quick test_emit_structure;
          Alcotest.test_case "wire compression" `Quick test_emit_reuse_compresses_wires;
          Alcotest.test_case "energy preserved" `Slow test_emit_energy_preserved;
          Alcotest.test_case "gamma beta" `Quick test_emit_respects_gamma_beta;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "trajectory" `Quick test_sweep_trajectory;
          Alcotest.test_case "modes agree" `Quick test_sweep_modes_agree_on_floor;
        ] );
    ]
