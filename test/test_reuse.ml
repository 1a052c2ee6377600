(* Unit tests for the reuse conditions (paper §3.1) and the
   measure-and-reset circuit transform. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module B = Quantum.Circuit.Builder
module G = Quantum.Gate

let bv5 () = Benchmarks.Bv.circuit 5

(* Paper Fig. 7: g(q4, q2); g(q2, q1); g(q3, q1) — wait, the figure's
   essence: reusing q1 for q4 is invalid because a gate on q1 depends
   transitively on a gate on q4. Reconstruct that shape. *)
let fig7 () =
  let b = B.create ~num_qubits:4 ~num_clbits:0 in
  B.cx b 3 1;  (* g(q4, q2) in paper numbering *)
  B.cx b 1 2;  (* chain through the middle *)
  B.cx b 2 0;  (* gate on q1 depends on everything above *)
  B.build b

let test_condition1_blocks_shared_gate () =
  let a = Caqr.Reuse.analyze (bv5 ()) in
  (* Data qubit and ancilla share a CX. *)
  check bool "0->4 fails c1" false
    (Caqr.Reuse.condition1 a { Caqr.Reuse.src = 0; dst = 4 });
  check bool "0->1 passes c1" true
    (Caqr.Reuse.condition1 a { Caqr.Reuse.src = 0; dst = 1 })

let test_condition2_fig7 () =
  let a = Caqr.Reuse.analyze (fig7 ()) in
  (* q0's gate depends transitively on q3's gate: (q0 -> q3) invalid. *)
  check bool "q0 reused by q3 invalid" false
    (Caqr.Reuse.condition2 a { Caqr.Reuse.src = 0; dst = 3 });
  (* The reverse direction is fine. *)
  check bool "q3 reused by q0 valid" true
    (Caqr.Reuse.condition2 a { Caqr.Reuse.src = 3; dst = 0 })

(* dst reaches src along an edge that is neither a gate nor a wire the
   two share: the compiler and the verifier must both refuse (src -> dst)
   and accept the reverse. *)
let check_indirect_dependence name c =
  let a = Caqr.Reuse.analyze c in
  let structural src dst =
    Verify.Structural.check_pairs ~original:c [ { Verify.Structural.src; dst } ]
  in
  check bool (name ^ ": c1 holds") true
    (Caqr.Reuse.condition1 a { Caqr.Reuse.src = 0; dst = 1 });
  check bool (name ^ ": q1 reaches q0") true (Caqr.Reuse.reaches a 1 0);
  check bool (name ^ ": 0->1 invalid") false
    (Caqr.Reuse.valid a { Caqr.Reuse.src = 0; dst = 1 });
  (match structural 0 1 with
   | Verify.Verdict.Inequivalent { Verify.Verdict.detail; _ } ->
     check bool (name ^ ": verifier names Condition 2") true
       (String.starts_with ~prefix:"pair 0 (q0 -> q1): Condition 2" detail)
   | v -> Alcotest.failf "%s: verifier accepted 0->1: %s" name (Verify.Verdict.to_string v));
  check bool (name ^ ": 1->0 valid") true
    (Caqr.Reuse.valid a { Caqr.Reuse.src = 1; dst = 0 });
  check bool (name ^ ": verifier accepts 1->0") true
    (Verify.Verdict.is_equivalent (structural 1 0))

let test_reach_through_barrier () =
  let b = B.create ~num_qubits:2 ~num_clbits:0 in
  B.h b 1;
  B.barrier b [ 0; 1 ];
  B.h b 0;
  check_indirect_dependence "barrier" (B.build b)

let test_reach_through_clbit () =
  let b = B.create ~num_qubits:2 ~num_clbits:1 in
  B.h b 0;
  B.measure b 1 0;
  B.if_x b 0 0;
  check_indirect_dependence "clbit" (B.build b)

let test_valid_requires_active () =
  let b = B.create ~num_qubits:3 ~num_clbits:0 in
  B.h b 0;
  B.h b 1;
  let a = Caqr.Reuse.analyze (B.build b) in
  check bool "inactive dst" false (Caqr.Reuse.valid a { Caqr.Reuse.src = 0; dst = 2 });
  check bool "self pair" false (Caqr.Reuse.valid a { Caqr.Reuse.src = 0; dst = 0 });
  check bool "active pair" true (Caqr.Reuse.valid a { Caqr.Reuse.src = 0; dst = 1 })

let test_valid_pairs_bv () =
  let a = Caqr.Reuse.analyze (bv5 ()) in
  let pairs = Caqr.Reuse.valid_pairs a in
  (* Only forward data-qubit pairs are valid: q_i's CX precedes q_j's CX
     on the ancilla wire, so the reverse direction violates Condition 2. *)
  check int "forward data pairs" 6 (List.length pairs);
  check bool "no ancilla" true
    (List.for_all (fun p -> p.Caqr.Reuse.src <> 4 && p.Caqr.Reuse.dst <> 4) pairs);
  check bool "all forward" true
    (List.for_all (fun p -> p.Caqr.Reuse.src < p.Caqr.Reuse.dst) pairs)

let test_predict_depth_matches_apply () =
  let c = bv5 () in
  let a = Caqr.Reuse.analyze c in
  List.iter
    (fun p ->
      let predicted = Caqr.Reuse.predict_depth a p in
      let actual = Quantum.Circuit.depth (Caqr.Reuse.apply c p) in
      check int
        (Printf.sprintf "pair %d->%d" p.Caqr.Reuse.src p.Caqr.Reuse.dst)
        predicted actual)
    (Caqr.Reuse.valid_pairs a)

let test_apply_reduces_usage () =
  let c = bv5 () in
  let c' = Caqr.Reuse.apply c { Caqr.Reuse.src = 0; dst = 1 } in
  check int "usage drops" 4 (Caqr.Reuse.qubit_usage c');
  check int "width unchanged" 5 c'.Quantum.Circuit.num_qubits;
  check int "one mid-circuit measure" 1 (Quantum.Circuit.mid_circuit_measurements c')

let test_apply_reuses_existing_measure () =
  (* BV data qubits end in a measurement, so the reset is driven by the
     existing clbit: no new clbits allocated. *)
  let c = bv5 () in
  let c' = Caqr.Reuse.apply c { Caqr.Reuse.src = 0; dst = 1 } in
  check int "clbits unchanged" c.Quantum.Circuit.num_clbits c'.Quantum.Circuit.num_clbits

let test_apply_shared_clbit_not_reused () =
  (* src ends in a measure, but its clbit is written again by q1's later
     measure. Kahn emission favors small gate ids, so that second writer
     lands between src's measure and the conditional X — driving the
     reset off the shared clbit would read q1's outcome, not src's. The
     transform must fall back to a fresh scratch clbit (fuzzer-found). *)
  let b = B.create ~num_qubits:3 ~num_clbits:2 in
  B.h b 0;
  B.measure b 0 0;
  B.x b 1;
  B.measure b 1 0;
  B.x b 2;
  B.measure b 2 1;
  let c = B.build b in
  let c' = Caqr.Reuse.apply c { Caqr.Reuse.src = 0; dst = 2 } in
  check int "scratch clbit added" (c.Quantum.Circuit.num_clbits + 1)
    c'.Quantum.Circuit.num_clbits;
  let scratch = c.Quantum.Circuit.num_clbits in
  check bool "reset driven by the scratch clbit" true
    (Array.exists
       (fun g -> match g.G.kind with G.If_x (cb, _) -> cb = scratch | _ -> false)
       c'.Quantum.Circuit.gates)

let test_apply_unmeasured_src_allocates_scratch () =
  (* src without a trailing measure needs Measure + If_x on a new clbit. *)
  let b = B.create ~num_qubits:3 ~num_clbits:0 in
  B.h b 0;
  B.cx b 0 1;
  B.h b 2;
  let c = B.build b in
  let c' = Caqr.Reuse.apply c { Caqr.Reuse.src = 0; dst = 2 } in
  check int "scratch clbit" 1 c'.Quantum.Circuit.num_clbits;
  let kinds = Array.map (fun g -> g.G.kind) c'.Quantum.Circuit.gates in
  check bool "has measure" true
    (Array.exists (function G.Measure _ -> true | _ -> false) kinds);
  check bool "has conditional reset" true
    (Array.exists (function G.If_x _ -> true | _ -> false) kinds)

let test_apply_invalid_raises () =
  let c = bv5 () in
  Alcotest.check_raises "invalid" (Invalid_argument "Reuse.apply: invalid pair")
    (fun () -> ignore (Caqr.Reuse.apply c { Caqr.Reuse.src = 0; dst = 4 }))

let test_apply_preserves_semantics_bv () =
  let c = bv5 () in
  let c' = Caqr.Reuse.apply c { Caqr.Reuse.src = 1; dst = 3 } in
  let d0 = Sim.Executor.run ~seed:1 ~shots:128 c in
  let d1 = Sim.Executor.run ~seed:9 ~shots:128 c' in
  check (Alcotest.float 1e-9) "identical distribution" 0. (Sim.Counts.tvd d0 d1)

let test_apply_preserves_semantics_entangled () =
  (* GHZ-producing circuit where q0 finishes early: reuse must preserve
     the entangled output distribution. *)
  let b = B.create ~num_qubits:4 ~num_clbits:4 in
  B.h b 0;
  B.cx b 0 1;
  B.measure b 0 0;
  B.h b 3;
  B.cx b 3 2;
  B.measure b 1 1;
  B.measure b 2 2;
  B.measure b 3 3;
  let c = B.build b in
  let a = Caqr.Reuse.analyze c in
  let p = { Caqr.Reuse.src = 0; dst = 3 } in
  check bool "pair valid" true (Caqr.Reuse.valid a p);
  let c' = Caqr.Reuse.apply c p in
  check int "3 wires" 3 (Caqr.Reuse.qubit_usage c');
  let d0 = Sim.Executor.run ~seed:2 ~shots:3000 c in
  let d1 = Sim.Executor.run ~seed:3 ~shots:3000 c' in
  check bool "distribution close" true (Sim.Counts.tvd d0 d1 < 0.06)

let test_chained_reuse () =
  (* Apply two reuses onto the same wire; the wire hosts three qubits. *)
  let c = bv5 () in
  let c1 = Caqr.Reuse.apply c { Caqr.Reuse.src = 0; dst = 1 } in
  let a1 = Caqr.Reuse.analyze c1 in
  check bool "chain extension valid" true
    (Caqr.Reuse.valid a1 { Caqr.Reuse.src = 0; dst = 2 });
  let c2 = Caqr.Reuse.apply c1 { Caqr.Reuse.src = 0; dst = 2 } in
  check int "usage 3" 3 (Caqr.Reuse.qubit_usage c2);
  let d0 = Sim.Executor.run ~seed:4 ~shots:64 c in
  let d2 = Sim.Executor.run ~seed:5 ~shots:64 c2 in
  check (Alcotest.float 1e-9) "still the secret" 0. (Sim.Counts.tvd d0 d2)

let test_src_finish_and_dst_start () =
  let a = Caqr.Reuse.analyze (bv5 ()) in
  let p = { Caqr.Reuse.src = 0; dst = 3 } in
  check bool "src finishes before dst could" true
    (Caqr.Reuse.src_finish_depth a p > 0);
  check bool "dst starts at depth >= 1" true (Caqr.Reuse.dst_start_depth a p >= 1)

let () =
  Alcotest.run "reuse"
    [
      ( "conditions",
        [
          Alcotest.test_case "condition 1" `Quick test_condition1_blocks_shared_gate;
          Alcotest.test_case "condition 2 (fig 7)" `Quick test_condition2_fig7;
          Alcotest.test_case "condition 2 through a barrier" `Quick
            test_reach_through_barrier;
          Alcotest.test_case "condition 2 through a clbit" `Quick
            test_reach_through_clbit;
          Alcotest.test_case "active qubits" `Quick test_valid_requires_active;
          Alcotest.test_case "valid pairs BV" `Quick test_valid_pairs_bv;
        ] );
      ( "prediction",
        [
          Alcotest.test_case "depth exact" `Quick test_predict_depth_matches_apply;
          Alcotest.test_case "finish/start keys" `Quick test_src_finish_and_dst_start;
        ] );
      ( "transform",
        [
          Alcotest.test_case "reduces usage" `Quick test_apply_reduces_usage;
          Alcotest.test_case "reuses existing measure" `Quick test_apply_reuses_existing_measure;
          Alcotest.test_case "scratch clbit" `Quick test_apply_unmeasured_src_allocates_scratch;
          Alcotest.test_case "shared clbit not reused" `Quick
            test_apply_shared_clbit_not_reused;
          Alcotest.test_case "invalid raises" `Quick test_apply_invalid_raises;
          Alcotest.test_case "semantics BV" `Quick test_apply_preserves_semantics_bv;
          Alcotest.test_case "semantics entangled" `Quick test_apply_preserves_semantics_entangled;
          Alcotest.test_case "chained reuse" `Quick test_chained_reuse;
        ] );
    ]
