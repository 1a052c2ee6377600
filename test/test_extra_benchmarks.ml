(* Tests for the extra benchmark circuits and their reuse behaviour at
   the edges of the spectrum. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let deterministic_output circuit =
  let d = Sim.Executor.run ~seed:1 ~shots:48 circuit in
  match Sim.Counts.top d with
  | Some k when Sim.Counts.get d k = 48 -> Some k
  | _ -> None

let test_ghz_distribution () =
  let c = Benchmarks.Extra.ghz 5 in
  let d = Sim.Executor.run ~seed:2 ~shots:600 c in
  (* Only all-zeros and all-ones. *)
  check int "two outcomes" 600 (Sim.Counts.get d 0 + Sim.Counts.get d 0b11111);
  check bool "balanced" true
    (Sim.Counts.get d 0 > 200 && Sim.Counts.get d 0b11111 > 200)

let test_ghz_chain_interaction () =
  let g = Quantum.Circuit.interaction_graph (Benchmarks.Extra.ghz 6) in
  check int "chain edges" 5 (Galg.Graph.size g);
  check int "max degree 2" 2 (Galg.Graph.max_degree g)

let test_qft_complete_interaction () =
  let n = 5 in
  let g = Quantum.Circuit.interaction_graph (Benchmarks.Extra.qft n) in
  check int "complete graph" (n * (n - 1) / 2) (Galg.Graph.size g)

let test_qft_has_no_reuse () =
  (* Condition 1 fails for every pair: the applicability detector must
     say no. *)
  let c = Benchmarks.Extra.qft 5 in
  check bool "no opportunity" true (Caqr.Reuse.valid_pairs (Caqr.Reuse.analyze c) = []);
  let yes, _ =
    Caqr.Pipeline.beneficial Hardware.Device.mumbai (Caqr.Pipeline.Regular c)
  in
  check bool "detector says no" false yes

let test_w_star_reuses_like_bv () =
  let c = Benchmarks.Extra.w_state_star 8 in
  check bool "reuses to <= 3" true (Caqr.Qs_caqr.min_qubits c <= 3)

let test_ripple_adder_correct () =
  (* a = 2^n - 1, b = 1: b reads 0, carry-out z reads 1, a restored. *)
  List.iter
    (fun n ->
      let c = Benchmarks.Extra.ripple_adder n in
      match deterministic_output c with
      | Some k ->
        let a_bits = (k lsr 1) land ((1 lsl n) - 1) in
        let b_bits = (k lsr (1 + n)) land ((1 lsl n) - 1) in
        let z = (k lsr ((2 * n) + 1)) land 1 in
        check int (Printf.sprintf "a restored (n=%d)" n) ((1 lsl n) - 1) a_bits;
        check int "sum bits zero" 0 b_bits;
        check int "carry out" 1 z
      | None -> Alcotest.fail "adder must be deterministic")
    [ 1; 2; 3 ]

let test_ripple_adder_width () =
  let c = Benchmarks.Extra.ripple_adder 4 in
  check int "2n+2 qubits" 10 c.Quantum.Circuit.num_qubits

let test_ghz_reuse_preserves_entanglement () =
  (* Reusing GHZ qubits must keep the two-peak distribution. *)
  let c = Benchmarks.Extra.ghz 5 in
  match Caqr.Qs_caqr.reduce_once c with
  | None -> () (* no valid pair is acceptable: entangled chain *)
  | Some (_, c') ->
    let d0 = Sim.Executor.run ~seed:3 ~shots:2500 c in
    let d1 = Sim.Executor.run ~seed:4 ~shots:2500 c' in
    check bool "distribution close" true (Sim.Counts.tvd d0 d1 < 0.06)

let test_adder_compiles_on_mumbai () =
  let c = Benchmarks.Extra.ripple_adder 3 in
  let r = Caqr.Sr_caqr.regular Hardware.Device.mumbai c in
  let d0 = Sim.Executor.run ~seed:5 ~shots:32 c in
  let d1 = Sim.Executor.run ~seed:6 ~shots:32 r.Caqr.Sr_caqr.physical in
  check (Alcotest.float 1e-9) "sr preserves adder" 0. (Sim.Counts.tvd d0 d1)

let () =
  Alcotest.run "extra_benchmarks"
    [
      ( "circuits",
        [
          Alcotest.test_case "ghz distribution" `Quick test_ghz_distribution;
          Alcotest.test_case "ghz interaction" `Quick test_ghz_chain_interaction;
          Alcotest.test_case "qft complete" `Quick test_qft_complete_interaction;
          Alcotest.test_case "ripple adder" `Quick test_ripple_adder_correct;
          Alcotest.test_case "adder width" `Quick test_ripple_adder_width;
        ] );
      ( "reuse-spectrum",
        [
          Alcotest.test_case "qft no reuse" `Quick test_qft_has_no_reuse;
          Alcotest.test_case "w-star reuses" `Quick test_w_star_reuses_like_bv;
          Alcotest.test_case "ghz reuse semantics" `Quick test_ghz_reuse_preserves_entanglement;
          Alcotest.test_case "adder on mumbai" `Slow test_adder_compiles_on_mumbai;
        ] );
    ]
