(* The SWAP router against its list-based reference (Router_ref): the
   same physical circuit, SWAP count and final layout wherever the
   reference finishes, on random dynamic circuits and on every circuit
   the compiler routes for Table 1 and the large corpus; and the release
   valve that ends the reference's livelocks. The passes around the
   router (peephole, initial layout, DAG, stats, ESP, active qubits) are
   checked against frozen copies of the implementations they replaced. *)

(* Routes [circuit] the way [Transpile.run] does (peephole, initial
   layout) twice: through the library, and through the frozen reference
   peephole, layout and router, so a divergent pass shows. The reference
   is [None] when it trips its step budget; the library must always
   finish. *)
let route_both device circuit =
  let expected =
    let circuit = Optimize_ref.peephole circuit in
    let layout = Layout_ref.initial device circuit in
    try Some (Router_ref.route device layout circuit)
    with Guard.Error.Budget_exceeded _ -> None
  in
  let circuit = Quantum.Optimize.peephole circuit in
  let layout = Transpiler.Layout.initial device circuit in
  (expected, Transpiler.Router.route device layout circuit)

let same (a : Transpiler.Router.result) (b : Transpiler.Router.result) =
  a.swaps_added = b.swaps_added
  && String.equal (Quantum.Qasm.to_string a.physical) (Quantum.Qasm.to_string b.physical)
  && a.final_layout.Transpiler.Layout.l2p = b.final_layout.Transpiler.Layout.l2p
  && a.final_layout.Transpiler.Layout.p2l = b.final_layout.Transpiler.Layout.p2l

(* One-pass stats and loop ESP equal the multi-pass definitions, the ESP
   bit for bit. *)
let check_metrics what device physical =
  Alcotest.(check bool) (what ^ ": stats") true
    (Transpiler.Transpile.stats_of device physical = Stats_ref.stats_of device physical);
  Alcotest.(check int64) (what ^ ": esp bits")
    (Int64.bits_of_float (Stats_ref.of_circuit device physical))
    (Int64.bits_of_float (Transpiler.Esp.of_circuit device physical))

let check_same what device circuit =
  match route_both device circuit with
  | Some expected, got ->
    Alcotest.(check int) (what ^ ": swaps") expected.swaps_added got.swaps_added;
    Alcotest.(check bool) (what ^ ": identical") true (same expected got);
    check_metrics what device got.physical
  | None, _ -> Alcotest.failf "%s: the reference router did not finish" what

(* ---- Property: random dynamic circuits ---- *)

let wide =
  {
    Fuzz.Gen.default with
    min_qubits = 6;
    max_qubits = 16;
    min_gates = 20;
    max_gates = 120;
    w_two_q = 6;
  }

let devices =
  [|
    Hardware.Device.mumbai;
    Hardware.Device.ideal (Hardware.Topology.line 16);
    Hardware.Device.ideal (Hardware.Topology.grid ~rows:4 ~cols:4);
    Hardware.Device.with_noise_scale 2. (Hardware.Device.heavy_hex_for 40);
  |]

let arb_case =
  QCheck.make
    ~print:(fun (seed, d, w) -> Printf.sprintf "seed=%d device=%d wide=%b" seed d w)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_bound (Array.length devices - 1)) bool)

let prop_matches_reference =
  QCheck.Test.make ~name:"router = reference on Fuzz.Gen circuits" ~count:300 arb_case
    (fun (seed, d, w) ->
      let config = if w then wide else Fuzz.Gen.default in
      let circuit = Fuzz.Gen.circuit config (Exec.Prng.make seed) in
      match route_both devices.(d) circuit with
      | Some expected, got -> same expected got
      | None, _ -> true)

(* ---- Properties: each pass against its frozen reference ---- *)

(* A fuzz circuit with each gate repeated with probability 1/2, so
   inverse pairs cancel, rotations fuse, and cancellations uncover
   earlier gates that cancel in turn. *)
let stuttered config seed =
  let rng = Exec.Prng.make seed in
  let c = Fuzz.Gen.circuit config rng in
  let kinds =
    Array.fold_right
      (fun (g : Quantum.Gate.t) acc ->
        if Exec.Prng.int rng 2 = 0 then g.kind :: g.kind :: acc else g.kind :: acc)
      c.gates []
  in
  Quantum.Circuit.of_kinds ~num_qubits:c.num_qubits ~num_clbits:c.num_clbits kinds

let arb_circuit =
  QCheck.make
    ~print:(fun (seed, w, st) -> Printf.sprintf "seed=%d wide=%b stutter=%b" seed w st)
    QCheck.Gen.(triple (int_bound 1_000_000) bool bool)

let circuit_of (seed, w, st) =
  let config = if w then wide else Fuzz.Gen.default in
  if st then stuttered config seed else Fuzz.Gen.circuit config (Exec.Prng.make seed)

let prop_peephole =
  QCheck.Test.make ~name:"peephole = reference" ~count:500 arb_circuit (fun case ->
      let c = circuit_of case in
      (* The digest reads fused angles bit for bit. *)
      String.equal
        (Quantum.Circuit.digest (Optimize_ref.peephole c))
        (Quantum.Circuit.digest (Quantum.Optimize.peephole c)))

let prop_layout =
  QCheck.Test.make ~name:"layout = reference" ~count:300
    (QCheck.pair arb_circuit (QCheck.int_bound (Array.length devices - 1)))
    (fun (case, d) ->
      let c = circuit_of case in
      let a = Layout_ref.initial devices.(d) c in
      let b = Transpiler.Layout.initial devices.(d) c in
      a.l2p = b.l2p && a.p2l = b.p2l)

let prop_dag =
  QCheck.Test.make ~name:"dag arrays = reference" ~count:300 arb_circuit (fun case ->
      let c = circuit_of case in
      Dag_ref.build c = Quantum.Dag.build c)

(* ESP of a circuit that is not routed reads the capped error of
   non-adjacent pairs, which no routed circuit has. *)
let prop_esp_unrouted =
  QCheck.Test.make ~name:"esp = reference on unrouted circuits" ~count:300
    (QCheck.pair arb_circuit (QCheck.int_bound (Array.length devices - 1)))
    (fun (case, d) ->
      let c = circuit_of case in
      Int64.equal
        (Int64.bits_of_float (Stats_ref.of_circuit devices.(d) c))
        (Int64.bits_of_float (Transpiler.Esp.of_circuit devices.(d) c)))

(* The list-walking definition [Circuit.active_qubits] replaced: qubits
   of every non-barrier gate's operand list. *)
let active_qubits_ref (c : Quantum.Circuit.t) =
  let used = Array.make c.num_qubits false in
  Array.iter
    (fun (g : Quantum.Gate.t) ->
      if not (Quantum.Gate.is_barrier g.kind) then
        List.iter (fun q -> used.(q) <- true) (Quantum.Gate.qubits g.kind))
    c.gates;
  List.filter (fun q -> used.(q)) (List.init c.num_qubits Fun.id)

let prop_active_qubits =
  QCheck.Test.make ~name:"active qubits = reference" ~count:300 arb_circuit (fun case ->
      let c = circuit_of case in
      active_qubits_ref c = Quantum.Circuit.active_qubits c)

(* ---- Fixed leg: everything Table 1 and the large corpus route ---- *)

let device_for (e : Benchmarks.Suite.entry) =
  Hardware.Device.heavy_hex_for e.circuit.Quantum.Circuit.num_qubits

(* [Pipeline] routes a logical circuit after dropping its empty wires. *)
let check_logical what device c = check_same what device (fst (Quantum.Circuit.compact_qubits c))

let test_table1_sweeps () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let device = device_for e in
      List.iteri
        (fun i (s : Caqr.Engine.step) ->
          check_logical (Printf.sprintf "%s step %d" e.name i) device s.circuit)
        (Caqr.Pipeline.steps (Benchmarks.Suite.input e)))
    (Benchmarks.Suite.table1 ())

let test_table1_engines () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let device = device_for e in
      List.iter
        (fun (s, run) ->
          let a = run device (Benchmarks.Suite.input e) in
          if not a.Caqr.Engine.routed then
            check_logical
              (Printf.sprintf "%s/%s" e.name (Caqr.Pipeline.strategy_name s))
              device a.Caqr.Engine.circuit)
        Caqr.Pipeline.engines)
    (Benchmarks.Suite.table1 ())

let test_large_baselines () =
  List.iter
    (fun (g : Benchmarks.Large.gen) ->
      let c = g.build () in
      check_logical g.name (Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits) c)
    (Benchmarks.Large.generators ())

(* ---- Release valve ---- *)

(* The reference router livelocks on cuccaro-128's QS artifact: it cycles
   among three or more SWAPs until the step budget trips. The valve
   routes it. *)
let test_cuccaro_valve () =
  let e = Benchmarks.Suite.find "cuccaro-128" in
  let device = device_for e in
  Obs.Metrics.reset ();
  let report =
    Caqr.Pipeline.compile device Caqr.Pipeline.Qs_max_reuse (Benchmarks.Suite.input e)
  in
  Alcotest.(check bool) "no demotion" true (report.degraded = []);
  Alcotest.(check bool) "valve fired" true
    (Obs.Metrics.count "route.release_valve" >= 1);
  Alcotest.(check int) "swaps" 1055 report.stats.Transpiler.Transpile.swaps;
  let logical = fst (Quantum.Circuit.compact_qubits report.logical) in
  Alcotest.(check bool) "reference livelocks" true
    (fst (route_both device logical) = None)

let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5a9; Hashtbl.hash name |]) t

let () =
  Alcotest.run "router"
    [
      ("reference", [ to_alcotest prop_matches_reference ]);
      ("passes", List.map to_alcotest [ prop_peephole; prop_layout; prop_dag; prop_esp_unrouted; prop_active_qubits ]);
      ( "corpus",
        [
          Alcotest.test_case "table1 sweep steps" `Quick test_table1_sweeps;
          Alcotest.test_case "table1 engine artifacts" `Quick test_table1_engines;
          Alcotest.test_case "large baselines" `Quick test_large_baselines;
        ] );
      ("valve", [ Alcotest.test_case "cuccaro-128 qs artifact routes" `Quick test_cuccaro_valve ]);
    ]
