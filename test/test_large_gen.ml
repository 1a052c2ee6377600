(* The large-circuit generator corpus (lib/benchmarks/large.ml):
   declared widths, QASM-3 round-trip fixpoints up to 1000 qubits (via
   both the materializing parser and the streaming fold), seed
   determinism, and a wall ceiling on DAG-backed analysis at full
   scale. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

module C = Quantum.Circuit
module L = Benchmarks.Large

(* ---- declared widths and gate counts ---- *)

let test_declared_widths () =
  (* full_use: the block/vertex generators touch every declared wire;
     the fuzz generator only promises the declared register width. *)
  let cases =
    [
      ("qaoa-powerlaw", L.qaoa_powerlaw ~seed:107 100, 100, true);
      ("cuccaro", L.cuccaro_farm 64, 64, true);
      ("qft-layered", L.qft_layered 100, 100, true);
      ("rand-dyn", L.rand_dyn ~seed:111 100, 100, false);
    ]
  in
  List.iter
    (fun (name, c, n, full_use) ->
      check int (name ^ ": qubits") n c.C.num_qubits;
      check bool (name ^ ": has gates") true (C.gate_count c > 0);
      if full_use then
        check bool
          (name ^ ": every wire used")
          true
          (List.length (C.active_qubits c) = n))
    cases

let test_rand_dyn_gate_range () =
  let n = 100 in
  let c = L.rand_dyn ~seed:111 n in
  check bool "gate count within the opened knobs" true
    (C.gate_count c >= 3 * n && C.gate_count c <= 4 * n)

let test_registered_names_resolve () =
  List.iter
    (fun name ->
      match L.find_opt name with
      | Some g ->
        let c = g.L.build () in
        (* The registered name's numeric suffix is the declared width. *)
        let suffix =
          match String.rindex_opt name '-' with
          | Some i ->
            int_of_string (String.sub name (i + 1) (String.length name - i - 1))
          | None -> -1
        in
        check int (name ^ ": suffix is width") suffix c.C.num_qubits;
        (* And the shared registry resolves the same entry. *)
        let e = Benchmarks.Suite.find name in
        check bool
          (name ^ ": suite resolves to the same circuit")
          true
          (C.digest e.Benchmarks.Suite.circuit = C.digest c)
      | None -> Alcotest.fail ("unregistered large benchmark " ^ name))
    (List.map (fun g -> g.L.name) (L.generators ()))

(* ---- QASM-3 round-trip fixpoint at 100/500/1000 qubits ---- *)

(* The emitter prints rotation angles at 6 decimals, so a first trip
   through text may round an angle's low bits; after that first trip
   the representation is stable. The fixpoint property is therefore
   textual — re-emitting the parsed circuit reproduces the text byte
   for byte — plus full shape preservation on the first trip. Families
   whose angles survive 6 decimals exactly (or that have none) also
   keep the bit-exact digest. *)
let roundtrip ?(exact = true) name c =
  let text = Quantum.Qasm.to_string c in
  let c' = Quantum.Qasm_parser.of_string text in
  check bool
    (name ^ ": emission is a fixpoint")
    true
    (Quantum.Qasm.to_string c' = text);
  check int (name ^ ": qubits") c.C.num_qubits c'.C.num_qubits;
  check int (name ^ ": clbits") c.C.num_clbits c'.C.num_clbits;
  check int (name ^ ": depth") (C.depth c) (C.depth c');
  check int
    (name ^ ": mid-circuit measurements")
    (C.mid_circuit_measurements c)
    (C.mid_circuit_measurements c');
  if exact then
    check bool (name ^ ": bit-exact digest") true (C.digest c = C.digest c')

let test_roundtrip_100 () =
  roundtrip "qaoa-powerlaw-100" (L.qaoa_powerlaw ~seed:107 100);
  roundtrip "cuccaro-128" (L.cuccaro_farm 128);
  roundtrip ~exact:false "qft-layered-100" (L.qft_layered 100);
  roundtrip ~exact:false "rand-dyn-100" (L.rand_dyn ~seed:111 100)

let test_roundtrip_500 () =
  roundtrip "qaoa-powerlaw-500" (L.qaoa_powerlaw ~seed:507 500);
  roundtrip ~exact:false "qft-layered-500" (L.qft_layered 500);
  roundtrip "cuccaro-512" (L.cuccaro_farm 512)

let test_roundtrip_1000 () =
  roundtrip "qaoa-powerlaw-1000" (L.qaoa_powerlaw ~seed:1007 1000);
  roundtrip ~exact:false "qft-layered-1000" (L.qft_layered 1000);
  roundtrip ~exact:false "rand-dyn-1000" (L.rand_dyn ~seed:1011 1000)

(* ---- seed determinism ---- *)

let test_seed_determinism () =
  check bool "qaoa: same seed, same circuit" true
    (C.digest (L.qaoa_powerlaw ~seed:7 100)
    = C.digest (L.qaoa_powerlaw ~seed:7 100));
  check bool "qaoa: different seed, different circuit" true
    (C.digest (L.qaoa_powerlaw ~seed:7 100)
    <> C.digest (L.qaoa_powerlaw ~seed:8 100));
  check bool "rand-dyn: same seed, same circuit" true
    (C.digest (L.rand_dyn ~seed:7 100) = C.digest (L.rand_dyn ~seed:7 100));
  check bool "rand-dyn: different seed, different circuit" true
    (C.digest (L.rand_dyn ~seed:7 100) <> C.digest (L.rand_dyn ~seed:8 100));
  check bool "registry is byte-stable" true
    (List.for_all2
       (fun (a : Benchmarks.Large.gen) (b : Benchmarks.Large.gen) ->
         C.digest (a.L.build ()) = C.digest (b.L.build ()))
       (L.generators ()) (L.generators ()))

(* ---- DAG-backed analysis stays within a wall ceiling at 1000q ---- *)

let test_analysis_within_budget () =
  (* Reuse analysis builds the gate DAG and the reachability closure;
     at 1000 qubits it must finish comfortably inside a 10 s deadline
     (measured ~10 ms per analysis at 250 qubits; the ceiling is a
     regression tripwire, not a tight bound). *)
  let c = L.qaoa_powerlaw ~seed:1007 1000 in
  let analysis =
    Guard.Budget.scoped
      (Guard.Budget.make ~ms:10_000 ())
      (fun () -> Caqr.Reuse.analyze c)
  in
  check bool "analysis sees reuse candidates" true
    (Caqr.Reuse.valid_pairs analysis <> [])

(* ---- generator argument validation ---- *)

let test_invalid_sizes_rejected () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check bool "cuccaro width must divide by 32" true
    (raises (fun () -> L.cuccaro_farm 100));
  check bool "qft width must divide by 10" true
    (raises (fun () -> L.qft_layered 99));
  check bool "qaoa needs >= 3 qubits" true
    (raises (fun () -> L.qaoa_powerlaw ~seed:1 2))

let () =
  Alcotest.run "large-gen"
    [
      ( "shape",
        [
          Alcotest.test_case "declared widths" `Quick test_declared_widths;
          Alcotest.test_case "rand-dyn gate range" `Quick
            test_rand_dyn_gate_range;
          Alcotest.test_case "registered names resolve" `Quick
            test_registered_names_resolve;
          Alcotest.test_case "invalid sizes rejected" `Quick
            test_invalid_sizes_rejected;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "100 qubits" `Quick test_roundtrip_100;
          Alcotest.test_case "500 qubits" `Quick test_roundtrip_500;
          Alcotest.test_case "1000 qubits" `Slow test_roundtrip_1000;
        ] );
      ( "determinism",
        [ Alcotest.test_case "fixed seeds" `Quick test_seed_determinism ] );
      ( "budget",
        [
          Alcotest.test_case "1000q analysis under a wall ceiling" `Slow
            test_analysis_within_budget;
        ] );
    ]
