(* Unit tests for the peephole optimizer and the QASM parser. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module B = Quantum.Circuit.Builder
module G = Quantum.Gate

let build f =
  let b = B.create ~num_qubits:4 ~num_clbits:4 in
  f b;
  B.build b

(* ---- Optimize ---- *)

let test_hh_cancels () =
  let c =
    build (fun b ->
        B.h b 0;
        B.h b 0)
  in
  check int "empty" 0 (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c))

let test_xx_cascade () =
  (* X X X X -> nothing; X X X -> X *)
  let c4 = build (fun b -> List.iter (fun _ -> B.x b 1) [ 1; 2; 3; 4 ]) in
  check int "four cancel" 0 (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c4));
  let c3 = build (fun b -> List.iter (fun _ -> B.x b 1) [ 1; 2; 3 ]) in
  check int "three leave one" 1 (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c3))

let test_cx_pair_cancels () =
  let c =
    build (fun b ->
        B.cx b 0 1;
        B.cx b 0 1)
  in
  check int "cx cx = id" 0 (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c))

let test_cx_reversed_does_not_cancel () =
  let c =
    build (fun b ->
        B.cx b 0 1;
        B.cx b 1 0)
  in
  check int "different orientation kept" 2
    (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c))

let test_cz_symmetric_cancels () =
  let c =
    build (fun b ->
        B.cz b 0 1;
        B.cz b 1 0)
  in
  check int "cz symmetric" 0 (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c))

let test_interleaved_wire_blocks_cancellation () =
  (* H q0; CX q0 q1; H q0 — the CX touches q0, so the H's must stay. *)
  let c =
    build (fun b ->
        B.h b 0;
        B.cx b 0 1;
        B.h b 0)
  in
  check int "blocked by cx" 3 (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c))

let test_other_wire_does_not_block () =
  (* H q0; X q1; H q0 — the X lives on another wire; H H cancels. *)
  let c =
    build (fun b ->
        B.h b 0;
        B.x b 1;
        B.h b 0)
  in
  check int "only x left" 1 (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c))

let test_rz_fusion () =
  let c =
    build (fun b ->
        B.rz b 0.3 2;
        B.rz b 0.4 2)
  in
  let o = Quantum.Optimize.peephole c in
  check int "fused" 1 (Quantum.Circuit.gate_count o);
  match o.Quantum.Circuit.gates.(0).G.kind with
  | G.One_q (G.Rz th, 2) -> check (Alcotest.float 1e-9) "angle sum" 0.7 th
  | _ -> Alcotest.fail "expected fused rz"

let test_rz_fusion_to_identity () =
  let c =
    build (fun b ->
        B.rz b 0.3 2;
        B.rz b (-0.3) 2)
  in
  check int "identity dropped" 0 (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c))

let test_rzz_fusion () =
  let c =
    build (fun b ->
        B.rzz b 0.2 0 1;
        B.rzz b 0.3 1 0)
  in
  check int "rzz fused across orientation" 1
    (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c))

let test_s_sdg_cancels () =
  let c =
    build (fun b ->
        B.add b (G.One_q (G.S, 0));
        B.add b (G.One_q (G.Sdg, 0)))
  in
  check int "s sdg" 0 (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c))

let test_dynamic_ops_block () =
  (* X; measure; X — measurement is a barrier, nothing cancels. *)
  let c =
    build (fun b ->
        B.x b 0;
        B.measure b 0 0;
        B.x b 0)
  in
  check int "measure blocks" 3 (Quantum.Circuit.gate_count (Quantum.Optimize.peephole c))

let test_optimizer_preserves_distribution () =
  (* A messy circuit with redundancy: same outcome before and after. *)
  let c =
    build (fun b ->
        B.h b 0;
        B.h b 0;
        B.h b 0;
        B.cx b 0 1;
        B.rz b 0.9 1;
        B.rz b (-0.9) 1;
        B.cx b 0 1;
        B.cx b 0 1;
        B.x b 2;
        B.x b 2;
        B.measure b 0 0;
        B.measure b 1 1;
        B.measure b 2 2)
  in
  let o = Quantum.Optimize.peephole c in
  check bool "smaller" true (Quantum.Circuit.gate_count o < Quantum.Circuit.gate_count c);
  let d0 = Sim.Executor.run ~seed:1 ~shots:2000 c in
  let d1 = Sim.Executor.run ~seed:2 ~shots:2000 o in
  check bool "same distribution" true (Sim.Counts.tvd d0 d1 < 0.06)

(* ---- Qasm parser ---- *)

let roundtrip c =
  Quantum.Qasm_parser.of_string (Quantum.Qasm.to_string c)

let test_parse_header_and_decl () =
  let c = Quantum.Qasm_parser.of_string
      "OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[3] q;\nbit[2] c;\nh q[0];\n"
  in
  check int "qubits" 3 c.Quantum.Circuit.num_qubits;
  check int "clbits" 2 c.Quantum.Circuit.num_clbits;
  check int "one gate" 1 (Quantum.Circuit.gate_count c)

let test_parse_gates () =
  let c =
    Quantum.Qasm_parser.of_string
      "qubit[3] q; bit[3] c;\n\
       h q[0]; x q[1]; sdg q[2]; rx(1.5) q[0]; rz(pi/2) q[1]; p(-pi) q[2];\n\
       cx q[0], q[1]; cz q[1], q[2]; swap q[0], q[2]; rzz(0.7) q[0], q[1];"
  in
  check int "ten gates" 10 (Quantum.Circuit.gate_count c);
  (match c.Quantum.Circuit.gates.(4).G.kind with
   | G.One_q (G.Rz th, 1) -> check (Alcotest.float 1e-9) "pi/2" (Float.pi /. 2.) th
   | _ -> Alcotest.fail "rz expected");
  match c.Quantum.Circuit.gates.(5).G.kind with
  | G.One_q (G.Phase th, 2) -> check (Alcotest.float 1e-9) "-pi" (-.Float.pi) th
  | _ -> Alcotest.fail "phase expected"

let test_parse_dynamic () =
  let c =
    Quantum.Qasm_parser.of_string
      "qubit[2] q; bit[2] c;\nc[0] = measure q[0];\nif (c[0]) x q[0];\nreset q[1];"
  in
  check int "three ops" 3 (Quantum.Circuit.gate_count c);
  (match c.Quantum.Circuit.gates.(0).G.kind with
   | G.Measure (0, 0) -> ()
   | _ -> Alcotest.fail "measure expected");
  match c.Quantum.Circuit.gates.(1).G.kind with
  | G.If_x (0, 0) -> ()
  | _ -> Alcotest.fail "if_x expected"

let test_parse_qasm2_measure () =
  let c =
    Quantum.Qasm_parser.of_string "qreg q[2]; creg c[2];\nmeasure q[1] -> c[0];"
  in
  match c.Quantum.Circuit.gates.(0).G.kind with
  | G.Measure (1, 0) -> ()
  | _ -> Alcotest.fail "qasm2 measure expected"

let test_parse_barrier_and_comments () =
  let c =
    Quantum.Qasm_parser.of_string
      "qubit[3] q; // declaration\nbarrier q[0], q[2]; // sync\n"
  in
  match c.Quantum.Circuit.gates.(0).G.kind with
  | G.Barrier [ 0; 2 ] -> ()
  | _ -> Alcotest.fail "barrier expected"

let test_parse_errors () =
  let fails s =
    match Quantum.Qasm_parser.of_string s with
    | exception Failure _ -> true
    | _ -> false
  in
  check bool "unknown gate" true (fails "qubit[1] q; frobnicate q[0];");
  check bool "bad angle" true (fails "qubit[1] q; rx(banana) q[0];");
  check bool "bad register" true (fails "qubit[1] q; h r[0];")

let test_roundtrip_bv () =
  let c = Benchmarks.Bv.circuit 5 in
  let c' = roundtrip c in
  check int "gates" (Quantum.Circuit.gate_count c) (Quantum.Circuit.gate_count c');
  let d0 = Sim.Executor.run ~seed:1 ~shots:64 c in
  let d1 = Sim.Executor.run ~seed:2 ~shots:64 c' in
  check (Alcotest.float 1e-9) "distribution" 0. (Sim.Counts.tvd d0 d1)

let test_roundtrip_dynamic_reuse () =
  (* The transformed 2-qubit BV (measure + conditional X mid-circuit). *)
  let c = fst (Quantum.Circuit.compact_qubits (Caqr.Qs_caqr.max_reuse (Benchmarks.Bv.circuit 5))) in
  let c' = roundtrip c in
  check int "gates" (Quantum.Circuit.gate_count c) (Quantum.Circuit.gate_count c');
  let d0 = Sim.Executor.run ~seed:3 ~shots:64 c in
  let d1 = Sim.Executor.run ~seed:4 ~shots:64 c' in
  check (Alcotest.float 1e-9) "distribution" 0. (Sim.Counts.tvd d0 d1)

let test_roundtrip_qaoa () =
  let g = Galg.Gen.random ~seed:3 6 ~density:0.4 in
  let c = Caqr.Commute.emit (Caqr.Commute.make g) in
  let c' = roundtrip c in
  check int "gates preserved" (Quantum.Circuit.gate_count c) (Quantum.Circuit.gate_count c')

let () =
  Alcotest.run "optimize"
    [
      ( "peephole",
        [
          Alcotest.test_case "hh cancels" `Quick test_hh_cancels;
          Alcotest.test_case "xx cascade" `Quick test_xx_cascade;
          Alcotest.test_case "cx pair" `Quick test_cx_pair_cancels;
          Alcotest.test_case "cx reversed kept" `Quick test_cx_reversed_does_not_cancel;
          Alcotest.test_case "cz symmetric" `Quick test_cz_symmetric_cancels;
          Alcotest.test_case "wire blocks" `Quick test_interleaved_wire_blocks_cancellation;
          Alcotest.test_case "other wire ok" `Quick test_other_wire_does_not_block;
          Alcotest.test_case "rz fusion" `Quick test_rz_fusion;
          Alcotest.test_case "rz identity" `Quick test_rz_fusion_to_identity;
          Alcotest.test_case "rzz fusion" `Quick test_rzz_fusion;
          Alcotest.test_case "s sdg" `Quick test_s_sdg_cancels;
          Alcotest.test_case "dynamic blocks" `Quick test_dynamic_ops_block;
          Alcotest.test_case "distribution preserved" `Quick test_optimizer_preserves_distribution;
        ] );
      ( "qasm-parser",
        [
          Alcotest.test_case "header + decls" `Quick test_parse_header_and_decl;
          Alcotest.test_case "gates" `Quick test_parse_gates;
          Alcotest.test_case "dynamic ops" `Quick test_parse_dynamic;
          Alcotest.test_case "qasm2 measure" `Quick test_parse_qasm2_measure;
          Alcotest.test_case "barrier + comments" `Quick test_parse_barrier_and_comments;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip bv" `Quick test_roundtrip_bv;
          Alcotest.test_case "roundtrip dynamic" `Quick test_roundtrip_dynamic_reuse;
          Alcotest.test_case "roundtrip qaoa" `Quick test_roundtrip_qaoa;
        ] );
    ]
