(* Unit tests for the circuit IR: gates, circuits, DAG, reachability,
   durations, QASM export, drawing. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module G = Quantum.Gate
module C = Quantum.Circuit
module B = Quantum.Circuit.Builder

let bv3 () =
  (* 3-qubit BV: data q0,q1; ancilla q2. *)
  let b = B.create ~num_qubits:3 ~num_clbits:2 in
  B.h b 0;
  B.h b 1;
  B.x b 2;
  B.h b 2;
  B.cx b 0 2;
  B.cx b 1 2;
  B.h b 0;
  B.h b 1;
  B.measure b 0 0;
  B.measure b 1 1;
  B.build b

(* ---- Gate ---- *)

let test_gate_qubits () =
  check (Alcotest.list int) "cx" [ 0; 2 ] (G.qubits (G.Cx (0, 2)));
  check (Alcotest.list int) "one q" [ 1 ] (G.qubits (G.One_q (G.H, 1)));
  check (Alcotest.list int) "measure" [ 3 ] (G.qubits (G.Measure (3, 0)));
  check (Alcotest.list int) "if_x" [ 2 ] (G.qubits (G.If_x (0, 2)));
  check (Alcotest.list int) "barrier" [ 0; 1 ] (G.qubits (G.Barrier [ 0; 1 ]))

let test_gate_clbits () =
  check (Alcotest.list int) "measure clbit" [ 4 ] (G.clbits (G.Measure (0, 4)));
  check (Alcotest.list int) "if_x clbit" [ 2 ] (G.clbits (G.If_x (2, 0)));
  check (Alcotest.list int) "cx no clbits" [] (G.clbits (G.Cx (0, 1)))

let test_gate_classify () =
  check bool "cx is 2q" true (G.is_two_q (G.Cx (0, 1)));
  check bool "rzz is 2q" true (G.is_two_q (G.Rzz (0.1, 0, 1)));
  check bool "h not 2q" false (G.is_two_q (G.One_q (G.H, 0)));
  check bool "measure dynamic" true (G.is_dynamic (G.Measure (0, 0)));
  check bool "if_x dynamic" true (G.is_dynamic (G.If_x (0, 0)));
  check bool "reset dynamic" true (G.is_dynamic (G.Reset 0));
  check bool "cx not dynamic" false (G.is_dynamic (G.Cx (0, 1)))

let test_map_qubits () =
  let k = G.map_qubits (fun q -> q + 10) (G.Cx (0, 1)) in
  check (Alcotest.list int) "renamed" [ 10; 11 ] (G.qubits k);
  let m = G.map_qubits (fun q -> q + 1) (G.Measure (0, 5)) in
  check (Alcotest.list int) "clbit kept" [ 5 ] (G.clbits m)

let test_map_qubits_barrier_dedup () =
  (* A non-injective rename (the reuse transform rewiring dst onto src)
     must not leave duplicate wires in a barrier: a duplicate reads as a
     self-dependence when the DAG is rebuilt. *)
  let k =
    G.map_qubits (fun q -> if q = 3 then 1 else q) (G.Barrier [ 0; 1; 3; 5 ])
  in
  check (Alcotest.list int) "deduped" [ 0; 1; 5 ] (G.qubits k)

(* ---- Circuit ---- *)

let test_circuit_counts () =
  let c = bv3 () in
  check int "gate count" 10 (C.gate_count c);
  check int "two q" 2 (C.two_q_count c);
  check int "no swaps" 0 (C.swap_count c);
  check (Alcotest.list int) "active" [ 0; 1; 2 ] (C.active_qubits c)

let test_circuit_depth () =
  let c = bv3 () in
  (* Ancilla wire: x, h, cx, cx -> depth at least 4; data wires h, cx, h,
     measure. Critical path: x h cx cx = 4 then nothing; q1: h cx(4th) h m = 5? *)
  check bool "depth sane" true (C.depth c >= 5)

let test_depth_ignores_barrier () =
  let b = B.create ~num_qubits:2 ~num_clbits:0 in
  B.h b 0;
  B.barrier b [ 0; 1 ];
  B.h b 1;
  let c = B.build b in
  check int "barrier free depth" 1 (C.depth c)

let test_clbit_serializes () =
  (* If_x must wait for the measure writing its clbit even on another
     qubit: wire-level dependency through c0. *)
  let b = B.create ~num_qubits:2 ~num_clbits:1 in
  B.measure b 0 0;
  B.if_x b 0 1;
  let c = B.build b in
  check int "sequential depth" 2 (C.depth c)

let test_duration_model () =
  let m = Quantum.Duration.default in
  check bool "measure+reset slower than measure+condx" true
    (Quantum.Duration.measure_reset_builtin m
    > Quantum.Duration.measure_cond_x m);
  (* Fig. 2: conditional reset roughly halves the turnaround. *)
  let ratio =
    float_of_int (Quantum.Duration.measure_reset_builtin m)
    /. float_of_int (Quantum.Duration.measure_cond_x m)
  in
  check bool "about 2x" true (ratio > 1.8 && ratio < 2.2)

let test_circuit_duration () =
  let b = B.create ~num_qubits:2 ~num_clbits:0 in
  B.h b 0;
  B.cx b 0 1;
  let c = B.build b in
  let m = Quantum.Duration.default in
  check int "serial h + cx" (m.Quantum.Duration.one_q + m.Quantum.Duration.cx)
    (C.duration m c)

let test_interaction_graph () =
  let c = bv3 () in
  let g = C.interaction_graph c in
  check bool "0-2" true (Galg.Graph.has_edge g 0 2);
  check bool "1-2" true (Galg.Graph.has_edge g 1 2);
  check bool "0-1 absent" false (Galg.Graph.has_edge g 0 1)

let test_map_qubits_circuit () =
  let c = bv3 () in
  let c' = C.map_qubits ~num_qubits:5 (fun q -> q + 2) c in
  check (Alcotest.list int) "shifted" [ 2; 3; 4 ] (C.active_qubits c')

let test_compact () =
  let c = bv3 () in
  let wide = C.map_qubits ~num_qubits:10 (fun q -> q * 3) c in
  let compacted, remap = C.compact_qubits wide in
  check int "3 wires" 3 compacted.C.num_qubits;
  check int "wire 0 stays" 0 remap.(0);
  check int "wire 3 -> 1" 1 remap.(3);
  check int "unused dropped" (-1) remap.(1)

let test_append () =
  (* Appending one gate list to another renumbers the ids densely. *)
  let c = bv3 () in
  let kinds = Array.map (fun g -> g.Quantum.Gate.kind) c.C.gates in
  let c2 =
    C.of_kind_array ~num_qubits:c.C.num_qubits ~num_clbits:c.C.num_clbits
      (Array.append kinds kinds)
  in
  check int "doubled" 20 (C.gate_count c2);
  Array.iteri (fun i g -> check int "dense id" i g.Quantum.Gate.id) c2.C.gates

let test_measure_all () =
  let b = B.create ~num_qubits:3 ~num_clbits:0 in
  B.h b 0;
  B.cx b 0 2;
  let c = C.measure_all (B.build b) in
  let measures =
    Array.to_list c.C.gates
    |> List.filter (fun g -> match g.G.kind with G.Measure _ -> true | _ -> false)
  in
  check int "active qubits measured" 2 (List.length measures)

let test_mid_circuit_measurements () =
  let b = B.create ~num_qubits:2 ~num_clbits:2 in
  B.h b 0;
  B.measure b 0 0;
  B.if_x b 0 0;
  B.h b 0;
  B.measure b 0 1;
  let c = B.build b in
  check int "one mid-circuit measure" 1 (C.mid_circuit_measurements c);
  check int "bv3 has none" 0 (C.mid_circuit_measurements (bv3 ()))

let test_builder_range_check () =
  let b = B.create ~num_qubits:2 ~num_clbits:1 in
  Alcotest.check_raises "bad qubit"
    (Invalid_argument "Circuit: classical bit out of range") (fun () ->
      B.measure b 0 5)

(* ---- DAG ---- *)

(* Successors of gate [i], in [Dag.iter_succs] order. *)
let succs dag i =
  let acc = ref [] in
  Quantum.Dag.iter_succs (fun j -> acc := j :: !acc) dag i;
  List.rev !acc

let test_dag_structure () =
  let c = bv3 () in
  let dag = Quantum.Dag.build c in
  let n = Quantum.Dag.num_nodes dag in
  check int "node per gate" (C.gate_count c) n;
  (* First gates have no preds. *)
  check (Alcotest.list int) "h q0 frontier"
    [ 0; 1; 2 ]
    (List.filter (fun i -> Quantum.Dag.in_degree dag i = 0) (List.init n Fun.id))

let test_dag_edges_follow_wires () =
  let b = B.create ~num_qubits:2 ~num_clbits:0 in
  B.h b 0;
  B.cx b 0 1;
  B.h b 1;
  let dag = Quantum.Dag.build (B.build b) in
  check (Alcotest.list int) "h0 -> cx" [ 1 ] (succs dag 0);
  check (Alcotest.list int) "cx -> h1" [ 2 ] (succs dag 1);
  check int "cx indeg" 1 (Quantum.Dag.in_degree dag 1)

let test_dag_critical_nodes () =
  let b = B.create ~num_qubits:3 ~num_clbits:0 in
  B.h b 0 (* off critical path *);
  B.cx b 1 2;
  B.cx b 1 2;
  B.cx b 1 2;
  let dag = Quantum.Dag.build (B.build b) in
  let crit = Quantum.Dag.critical_nodes ~weight:(fun _ -> 1) dag in
  check bool "h not critical" false crit.(0);
  check bool "cx critical" true crit.(1)

(* A wire's gates, in execution order, are chained by DAG edges. *)
let test_gates_on_qubit () =
  let c = bv3 () in
  let dag = Quantum.Dag.build c in
  let on_qubit q =
    List.filter
      (fun i -> List.mem q (Quantum.Gate.qubits c.C.gates.(i).Quantum.Gate.kind))
      (List.init (C.gate_count c) Fun.id)
  in
  let rec chained = function
    | g :: (h :: _ as rest) -> List.mem h (succs dag g) && chained rest
    | _ -> true
  in
  List.iter
    (fun q ->
      let gates = on_qubit q in
      check int (Printf.sprintf "q%d gates" q) 4 (List.length gates);
      check bool (Printf.sprintf "q%d chained" q) true (chained gates))
    [ 0; 2 ]

(* ---- Reachability: the qubit reach rows of [Reuse.analyze] ---- *)

let test_reachability_transitive () =
  let b = B.create ~num_qubits:4 ~num_clbits:0 in
  B.cx b 0 1;
  B.cx b 1 2;
  B.h b 2;
  B.cx b 2 3;
  let a = Caqr.Reuse.analyze (B.build b) in
  check bool "0 -> 3 transitively" true (Caqr.Reuse.reaches a 0 3);
  check bool "reflexive" true (Caqr.Reuse.reaches a 1 1);
  check bool "no back edge" false (Caqr.Reuse.reaches a 3 0)

let test_reachability_any_path () =
  let b = B.create ~num_qubits:5 ~num_clbits:0 in
  B.cx b 0 1;
  B.cx b 2 3;
  let a = Caqr.Reuse.analyze (B.build b) in
  check bool "disjoint components" false (Caqr.Reuse.reaches a 0 2);
  check bool "self component" true (Caqr.Reuse.reaches a 0 1);
  check bool "idle wire reaches nothing" false (Caqr.Reuse.reaches a 4 4)

(* ---- QASM & drawing ---- *)

let test_qasm_output () =
  let s = Quantum.Qasm.to_string (bv3 ()) in
  check bool "header" true
    (String.length s > 0 && String.sub s 0 12 = "OPENQASM 3.0");
  let has needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check bool "has cx" true (has "cx q[0], q[2]");
  check bool "has measure" true (has "c[0] = measure q[0]")

let test_qasm_dynamic_ops () =
  let b = B.create ~num_qubits:1 ~num_clbits:1 in
  B.measure b 0 0;
  B.if_x b 0 0;
  let s = Quantum.Qasm.to_string (B.build b) in
  let has needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check bool "if statement" true (has "if (c[0]) x q[0]")

let test_draw_rows () =
  let s = Quantum.Draw.to_string (bv3 ()) in
  let rows = String.split_on_char '\n' s |> List.filter (fun r -> r <> "") in
  check int "one row per qubit" 3 (List.length rows)

let () =
  Alcotest.run "quantum"
    [
      ( "gate",
        [
          Alcotest.test_case "qubits" `Quick test_gate_qubits;
          Alcotest.test_case "clbits" `Quick test_gate_clbits;
          Alcotest.test_case "classification" `Quick test_gate_classify;
          Alcotest.test_case "map qubits" `Quick test_map_qubits;
          Alcotest.test_case "barrier rename dedups" `Quick
            test_map_qubits_barrier_dedup;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "counts" `Quick test_circuit_counts;
          Alcotest.test_case "depth" `Quick test_circuit_depth;
          Alcotest.test_case "barrier depth" `Quick test_depth_ignores_barrier;
          Alcotest.test_case "clbit serializes" `Quick test_clbit_serializes;
          Alcotest.test_case "duration model" `Quick test_duration_model;
          Alcotest.test_case "circuit duration" `Quick test_circuit_duration;
          Alcotest.test_case "interaction graph" `Quick test_interaction_graph;
          Alcotest.test_case "map qubits" `Quick test_map_qubits_circuit;
          Alcotest.test_case "compact" `Quick test_compact;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "measure all" `Quick test_measure_all;
          Alcotest.test_case "mid-circuit measures" `Quick test_mid_circuit_measurements;
          Alcotest.test_case "builder range check" `Quick test_builder_range_check;
        ] );
      ( "dag",
        [
          Alcotest.test_case "structure" `Quick test_dag_structure;
          Alcotest.test_case "wire edges" `Quick test_dag_edges_follow_wires;
          Alcotest.test_case "critical nodes" `Quick test_dag_critical_nodes;
          Alcotest.test_case "gates on qubit" `Quick test_gates_on_qubit;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "transitive" `Quick test_reachability_transitive;
          Alcotest.test_case "any path" `Quick test_reachability_any_path;
        ] );
      ( "io",
        [
          Alcotest.test_case "qasm" `Quick test_qasm_output;
          Alcotest.test_case "qasm dynamic" `Quick test_qasm_dynamic_ops;
          Alcotest.test_case "draw" `Quick test_draw_rows;
        ] );
    ]
