(* The SWAP router against its list-based reference (Router_ref): the
   same physical circuit, SWAP count and final layout wherever the
   reference finishes, on random dynamic circuits and on every circuit
   the compiler routes for Table 1 and the large corpus; and the release
   valve that ends the reference's livelocks. *)

(* Routes [circuit] the way [Transpile.run] does (peephole, initial
   layout) with both routers. The reference is [None] when it trips its
   step budget; the router under test must always finish. *)
let route_both device circuit =
  let circuit = Quantum.Optimize.peephole circuit in
  let layout = Transpiler.Layout.initial device circuit in
  let expected =
    try Some (Router_ref.route device layout circuit)
    with Guard.Error.Budget_exceeded _ -> None
  in
  (expected, Transpiler.Router.route device layout circuit)

let same (a : Transpiler.Router.result) (b : Transpiler.Router.result) =
  a.swaps_added = b.swaps_added
  && String.equal (Quantum.Qasm.to_string a.physical) (Quantum.Qasm.to_string b.physical)
  && a.final_layout.Transpiler.Layout.l2p = b.final_layout.Transpiler.Layout.l2p
  && a.final_layout.Transpiler.Layout.p2l = b.final_layout.Transpiler.Layout.p2l

let check_same what device circuit =
  match route_both device circuit with
  | Some expected, got ->
    Alcotest.(check int) (what ^ ": swaps") expected.swaps_added got.swaps_added;
    Alcotest.(check bool) (what ^ ": identical") true (same expected got)
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
      ( "corpus",
        [
          Alcotest.test_case "table1 sweep steps" `Quick test_table1_sweeps;
          Alcotest.test_case "table1 engine artifacts" `Quick test_table1_engines;
          Alcotest.test_case "large baselines" `Quick test_large_baselines;
        ] );
      ("valve", [ Alcotest.test_case "cuccaro-128 qs artifact routes" `Quick test_cuccaro_valve ]);
    ]
