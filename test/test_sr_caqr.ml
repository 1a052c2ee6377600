(* Unit tests for SR-CaQR: the lazy, reclaim-aware mapper. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module G = Quantum.Gate

let mumbai = Hardware.Device.mumbai

let hardware_compliant device (c : Quantum.Circuit.t) =
  Array.for_all
    (fun g ->
      if G.is_two_q g.G.kind then
        match G.qubits g.G.kind with
        | [ a; b ] -> Hardware.Device.adjacent device a b
        | _ -> true
      else true)
    c.Quantum.Circuit.gates

let test_bv10_zero_swaps () =
  (* The paper's flagship SR result: the BV star compiles with reuse and
     no SWAPs at all. *)
  let r = Caqr.Sr_caqr.regular mumbai (Benchmarks.Bv.circuit 10) in
  check int "no swaps" 0 r.Caqr.Sr_caqr.swaps_added;
  check int "two qubits" 2 r.Caqr.Sr_caqr.qubits_used;
  check bool "reuses happened" true (r.Caqr.Sr_caqr.reuses >= 8);
  check bool "compliant" true (hardware_compliant mumbai r.Caqr.Sr_caqr.physical)

let test_bv10_semantics () =
  let r = Caqr.Sr_caqr.regular mumbai (Benchmarks.Bv.circuit 10) in
  let d = Sim.Executor.run ~seed:1 ~shots:64 r.Caqr.Sr_caqr.physical in
  check int "secret recovered" 64 (Sim.Counts.get d (Benchmarks.Bv.expected_output 10))

let test_all_regular_benchmarks_compile () =
  List.iter
    (fun e ->
      let r = Caqr.Sr_caqr.regular mumbai e.Benchmarks.Suite.circuit in
      check bool
        (e.Benchmarks.Suite.name ^ " compliant")
        true
        (hardware_compliant mumbai r.Caqr.Sr_caqr.physical))
    (Benchmarks.Suite.regular ())

let test_semantics_all_regular () =
  (* SR-compiled circuits reproduce the logical output distribution. *)
  List.iter
    (fun name ->
      let e = Benchmarks.Suite.find name in
      let r = Caqr.Sr_caqr.regular mumbai e.Benchmarks.Suite.circuit in
      let d0 = Sim.Executor.run ~seed:2 ~shots:48 e.Benchmarks.Suite.circuit in
      let d1 = Sim.Executor.run ~seed:3 ~shots:48 r.Caqr.Sr_caqr.physical in
      check (Alcotest.float 1e-9) (name ^ " identical") 0. (Sim.Counts.tvd d0 d1))
    [ "RD-32"; "XOR_5"; "CC_10"; "System_9" ]

let test_swaps_not_worse_than_baseline () =
  (* SR-CaQR's selling point (Table 2): it should beat or tie the no-reuse
     baseline on SWAPs for the star-like benchmarks. *)
  List.iter
    (fun name ->
      let e = Benchmarks.Suite.find name in
      let sr = Caqr.Sr_caqr.regular mumbai e.Benchmarks.Suite.circuit in
      let base = Transpiler.Transpile.run mumbai e.Benchmarks.Suite.circuit in
      check bool
        (Printf.sprintf "%s: sr %d <= base %d" name sr.Caqr.Sr_caqr.swaps_added
           base.Transpiler.Transpile.stats.Transpiler.Transpile.swaps)
        true
        (sr.Caqr.Sr_caqr.swaps_added
        <= base.Transpiler.Transpile.stats.Transpiler.Transpile.swaps))
    [ "BV_10"; "CC_10"; "XOR_5" ]

let test_qubit_usage_reduced () =
  let e = Benchmarks.Suite.find "CC_10" in
  let r = Caqr.Sr_caqr.regular mumbai e.Benchmarks.Suite.circuit in
  check bool "fewer than 10 qubits" true (r.Caqr.Sr_caqr.qubits_used < 10)

let test_commutable_compiles () =
  let g = Galg.Gen.random ~seed:42 8 ~density:0.3 in
  let r = Caqr.Sr_caqr.commutable mumbai g in
  check bool "compliant" true (hardware_compliant mumbai r.Caqr.Sr_caqr.physical);
  check bool "fits device" true (r.Caqr.Sr_caqr.qubits_used <= 27)

let test_commutable_energy_preserved () =
  let g = Galg.Gen.random ~seed:43 7 ~density:0.35 in
  let problem = { Qaoa.Maxcut.graph = g; name = "t" } in
  let r = Caqr.Sr_caqr.commutable mumbai g in
  let plain = Caqr.Commute.emit (Caqr.Commute.make g) in
  let e c seed =
    Qaoa.Maxcut.neg_expected_cut problem (Sim.Executor.run ~seed ~shots:6000 c)
  in
  check bool "energy close" true
    (Float.abs (e plain 1 -. e r.Caqr.Sr_caqr.physical 2) < 0.25)

let test_line_device_fallback () =
  (* On a line, SR must still produce a compliant circuit (swaps needed). *)
  let line = Hardware.Device.ideal (Hardware.Topology.line 8) in
  let r = Caqr.Sr_caqr.regular line (Benchmarks.Bv.circuit 6) in
  check bool "compliant" true (hardware_compliant line r.Caqr.Sr_caqr.physical);
  let d = Sim.Executor.run ~seed:4 ~shots:48 r.Caqr.Sr_caqr.physical in
  check int "secret" 48 (Sim.Counts.get d (Benchmarks.Bv.expected_output 6))

(* ---- The flat mapper against its list-based reference (Sr_ref) ---- *)

(* What a compile shows: the physical circuit's QASM, SWAPs, width and
   reuses, or the error it raised. *)
let outcome f =
  match f () with
  | (physical, swaps, used, reuses) ->
    Ok (Quantum.Qasm.to_string physical, swaps, used, reuses)
  | exception e -> Error (Guard.Error.to_string (Guard.Error.of_exn ~stage:"test" e))

let of_sr (r : Caqr.Sr_caqr.result) = (r.physical, r.swaps_added, r.qubits_used, r.reuses)
let of_ref (r : Sr_ref.result) = (r.physical, r.swaps_added, r.qubits_used, r.reuses)
let sr device c = outcome (fun () -> of_sr (Caqr.Sr_caqr.regular device c))
let sr_ref device c = outcome (fun () -> of_ref (Sr_ref.regular device c))

let check_same what expected got =
  match (expected, got) with
  | Ok (qasm, swaps, used, reuses), Ok (qasm', swaps', used', reuses') ->
    check int (what ^ ": swaps") swaps swaps';
    check int (what ^ ": qubits used") used used';
    check int (what ^ ": reuses") reuses reuses';
    check bool (what ^ ": physical circuit") true (String.equal qasm qasm')
  | Error e, Error e' -> check Alcotest.string (what ^ ": error") e e'
  | Ok _, Error e -> Alcotest.failf "%s: only the mapper raised: %s" what e
  | Error e, Ok _ -> Alcotest.failf "%s: only the reference raised: %s" what e

let devices =
  [|
    mumbai;
    Hardware.Device.ideal (Hardware.Topology.line 16);
    Hardware.Device.ideal (Hardware.Topology.grid ~rows:4 ~cols:4);
    Hardware.Device.with_noise_scale 2. (Hardware.Device.heavy_hex_for 40);
  |]

(* Up to 12 qubits and 120 gates, with barriers, mid-circuit measurement,
   resets and conditional X. *)
let fuzz_config = { Fuzz.Gen.default with max_qubits = 12; max_gates = 120 }

let prop_matches_reference =
  QCheck.Test.make ~name:"sr = reference on Fuzz.Gen circuits" ~count:1000
    (QCheck.make
       ~print:(fun (seed, d) -> Printf.sprintf "seed=%d device=%d" seed d)
       QCheck.Gen.(pair (int_bound 1_000_000) (int_bound (Array.length devices - 1))))
    (fun (seed, d) ->
      let c = Fuzz.Gen.circuit fuzz_config (Exec.Prng.make seed) in
      sr_ref devices.(d) c = sr devices.(d) c)

(* Barriers of one and two wires ahead of every other gate on them: the
   mapper dispatches on the operand count, so a two-wire barrier takes
   the two-qubit placement (the wire with more gates left first, the
   other next to it). *)
let test_barriers () =
  let module B = Quantum.Circuit.Builder in
  let build f =
    let b = B.create ~num_qubits:6 ~num_clbits:6 in
    f b;
    B.build b
  in
  let cases =
    [
      ( "1-wire barrier",
        build (fun b ->
            B.barrier b [ 3 ];
            B.h b 3;
            B.cx b 3 0;
            B.cx b 0 5;
            B.measure b 3 3) );
      ( "2-wire barrier",
        build (fun b ->
            B.barrier b [ 1; 4 ];
            B.cx b 4 2;
            B.cx b 1 2;
            B.cx b 1 5;
            B.measure b 1 1;
            B.measure b 4 4) );
      ( "2-wire barrier, uneven load",
        build (fun b ->
            B.barrier b [ 0; 5 ];
            B.cx b 5 1;
            B.cx b 5 2;
            B.cx b 5 3;
            B.cx b 0 4;
            B.barrier b [ 2; 3 ];
            B.measure b 5 5) );
      ( "mixed barriers",
        build (fun b ->
            B.barrier b [ 2 ];
            B.barrier b [ 0; 1 ];
            B.barrier b [ 1; 3; 4 ];
            B.cx b 0 3;
            B.cx b 2 4;
            B.barrier b [ 0; 4 ];
            B.cx b 1 2) );
    ]
  in
  Array.iteri
    (fun d device ->
      List.iter
        (fun (what, c) ->
          let what = Printf.sprintf "%s on device %d" what d in
          check_same what (sr_ref device c) (sr device c))
        cases)
    devices

let device_for (c : Quantum.Circuit.t) = Hardware.Device.heavy_hex_for c.num_qubits

(* Every Table-1 input and sweep row, [commutable] on the QAOA graphs, and
   two large circuits. *)
let test_corpus () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let device = device_for e.circuit in
      (match e.kind with
       | Regular -> check_same e.name (sr_ref device e.circuit) (sr device e.circuit)
       | Commutable g ->
         check_same (e.name ^ " commutable")
           (outcome (fun () -> of_ref (Sr_ref.commutable device g)))
           (outcome (fun () -> of_sr (Caqr.Sr_caqr.commutable device g))));
      List.iteri
        (fun i (s : Caqr.Engine.step) ->
          check_same (Printf.sprintf "%s row %d" e.name i) (sr_ref device s.circuit)
            (sr device s.circuit))
        (Caqr.Pipeline.steps (Benchmarks.Suite.input e)))
    (Benchmarks.Suite.table1 ());
  List.iter
    (fun name ->
      let c = (Benchmarks.Suite.find name).circuit in
      check_same name (sr_ref (device_for c) c) (sr (device_for c) c))
    [ "cuccaro-64"; "qft-layered-100" ]

let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5a9; Hashtbl.hash name |]) t

let () =
  Alcotest.run "sr_caqr"
    [
      ( "regular",
        [
          Alcotest.test_case "bv10 zero swaps" `Quick test_bv10_zero_swaps;
          Alcotest.test_case "bv10 semantics" `Quick test_bv10_semantics;
          Alcotest.test_case "all compile" `Quick test_all_regular_benchmarks_compile;
          Alcotest.test_case "semantics preserved" `Slow test_semantics_all_regular;
          Alcotest.test_case "swaps vs baseline" `Quick test_swaps_not_worse_than_baseline;
          Alcotest.test_case "usage reduced" `Quick test_qubit_usage_reduced;
          Alcotest.test_case "line device" `Quick test_line_device_fallback;
        ] );
      ( "commutable",
        [
          Alcotest.test_case "compiles" `Quick test_commutable_compiles;
          Alcotest.test_case "energy preserved" `Slow test_commutable_energy_preserved;
        ] );
      ( "reference",
        [
          to_alcotest prop_matches_reference;
          Alcotest.test_case "1- and 2-wire barriers" `Quick test_barriers;
          Alcotest.test_case "table1, sweep rows, large" `Quick test_corpus;
        ] );
    ]
