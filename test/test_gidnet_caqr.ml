(* Unit tests for the GidNET chain-extraction engine: hand-computed
   widths, chain accounting, determinism, certificate validity, and the
   width-never-exceeds-baseline property over generated circuits. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module B = Quantum.Circuit.Builder

let width_of c = (Caqr.Gidnet_caqr.run c).Caqr.Engine.width

let certify ~original pairs =
  let claimed =
    List.map
      (fun (p : Caqr.Reuse.pair) ->
        { Verify.Structural.src = p.Caqr.Reuse.src; dst = p.Caqr.Reuse.dst })
      pairs
  in
  match Verify.Structural.check_pairs ~original claimed with
  | Verify.Verdict.Equivalent -> true
  | Verify.Verdict.Inequivalent x ->
    Printf.printf "pair certificate refuted: %s\n%!" x.Verify.Verdict.detail;
    false
  | Verify.Verdict.Inconclusive why ->
    Printf.printf "pair certificate inconclusive: %s\n%!" why;
    false

(* Same hand computation as the cone suite: GHZ_3's only candidate pair
   is (0, 2), one fold, width 2. *)
let test_ghz3_width () =
  let r = Caqr.Gidnet_caqr.run (Benchmarks.Extra.ghz 3) in
  check int "GHZ_3 -> 2 wires" 2 r.Caqr.Engine.width;
  check int "one fold" 1 (r.Caqr.Engine.reuses)

(* BV is the chain engine's best case: the candidate graph over the data
   qubits is complete (they never interact), so one chain folds them all
   onto a single wire. n-1 data qubits + target = width 2, with the
   n-2 folds ideally committed as a single chain. *)
let test_bv_min_is_two () =
  List.iter
    (fun n ->
      check int (Printf.sprintf "BV_%d -> 2" n) 2
        (width_of (Benchmarks.Bv.circuit n)))
    [ 3; 5; 10 ]

let hosts r =
  List.sort_uniq compare
    (List.map
       (fun (p : Caqr.Reuse.pair) -> p.Caqr.Reuse.src)
       (Option.get r.Caqr.Engine.pairs))

let test_bv_single_chain () =
  let r = Caqr.Gidnet_caqr.run (Benchmarks.Bv.circuit 8) in
  check int "one host wire suffices for BV_8" 1 (List.length (hosts r))

let test_dynamic_ping_width_one () =
  let b = B.create ~num_qubits:2 ~num_clbits:2 in
  B.h b 0;
  B.measure b 0 0;
  B.if_x b 0 1;
  B.measure b 1 1;
  let c = B.build b in
  let r = Caqr.Gidnet_caqr.run c in
  check int "dynamic ping -> 1 wire" 1 r.Caqr.Engine.width;
  check bool "certificate revalidates" true
    (certify ~original:c (Option.get r.Caqr.Engine.pairs))

let test_teleport_skeleton_irreducible () =
  let b = B.create ~num_qubits:3 ~num_clbits:3 in
  B.h b 1;
  B.cx b 1 2;
  B.cx b 0 1;
  B.h b 0;
  B.measure b 0 0;
  B.measure b 1 1;
  B.if_x b 1 2;
  B.measure b 2 2;
  let r = Caqr.Gidnet_caqr.run (B.build b) in
  check int "teleport skeleton stays at 3" 3 r.Caqr.Engine.width;
  check int "no pairs" 0 r.Caqr.Engine.reuses

let test_deterministic () =
  let c = Benchmarks.Revlib.multiply_13 () in
  let qasm r = Quantum.Qasm.to_string r.Caqr.Engine.circuit in
  let a = Caqr.Gidnet_caqr.run c and b = Caqr.Gidnet_caqr.run c in
  check Alcotest.string "same circuit bytes" (qasm a) (qasm b);
  check bool "same pairs" true (a.Caqr.Engine.pairs = b.Caqr.Engine.pairs)

(* Chain accounting: every link folds a qubit onto its chain's host
   wire, so each qubit is folded at most once and a folded qubit never
   hosts a chain itself — the chains partition the folded qubits. *)
let test_chain_accounting () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let r = Caqr.Gidnet_caqr.run e.Benchmarks.Suite.circuit in
      let pairs = Option.get r.Caqr.Engine.pairs in
      let folded = List.map (fun (p : Caqr.Reuse.pair) -> p.Caqr.Reuse.dst) pairs in
      check int
        (e.Benchmarks.Suite.name ^ " folded once")
        (List.length folded)
        (List.length (List.sort_uniq compare folded));
      check bool
        (e.Benchmarks.Suite.name ^ " chains are disjoint")
        true
        (List.for_all (fun h -> not (List.mem h folded)) (hosts r)))
    (Benchmarks.Suite.regular ())

let test_regular_benchmarks_certify () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let c = e.Benchmarks.Suite.circuit in
      let r = Caqr.Gidnet_caqr.run c in
      check int
        (e.Benchmarks.Suite.name ^ " width claim")
        (Caqr.Reuse.qubit_usage r.Caqr.Engine.circuit)
        r.Caqr.Engine.width;
      check bool
        (e.Benchmarks.Suite.name ^ " certificate")
        true
        (certify ~original:c (Option.get r.Caqr.Engine.pairs)))
    (Benchmarks.Suite.regular ())

let prop_width_le_baseline =
  QCheck.Test.make ~name:"gidnet width <= baseline" ~count:100
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make seed) in
      let r = Caqr.Gidnet_caqr.run c in
      r.Caqr.Engine.width <= Caqr.Reuse.qubit_usage c)

(* The flat engine against the list-based one it replaced
   (test/gidnet_ref.ml). *)
let reference = Gidnet_ref.run
let run = Caqr.Gidnet_caqr.run

let () =
  Alcotest.run "gidnet_caqr"
    [
      ( "widths",
        [
          Alcotest.test_case "ghz3" `Quick test_ghz3_width;
          Alcotest.test_case "bv min 2" `Quick test_bv_min_is_two;
          Alcotest.test_case "bv single chain" `Quick test_bv_single_chain;
          Alcotest.test_case "dynamic ping" `Quick test_dynamic_ping_width_one;
          Alcotest.test_case "teleport skeleton" `Quick
            test_teleport_skeleton_irreducible;
        ] );
      ( "structure",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "chain accounting" `Slow test_chain_accounting;
          Alcotest.test_case "all regular certify" `Slow
            test_regular_benchmarks_certify;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_width_le_baseline ] );
      ( "reference",
        [
          Alcotest.test_case "table1, emitted QAOA, large corpus" `Quick
            (Engine_oracle.check_corpus ~reference ~run);
          QCheck_alcotest.to_alcotest
            (Engine_oracle.prop_fuzz ~name:"gidnet = reference on fuzz circuits"
               ~reference ~run);
          QCheck_alcotest.to_alcotest
            (Engine_oracle.prop_rand_dyn
               ~name:"gidnet = reference on rand_dyn 4-48" ~reference ~run);
          Alcotest.test_case "tripped budget" `Quick
            (Engine_oracle.check_tripped ~reference ~run);
          Alcotest.test_case "budget out mid-run" `Quick
            (Engine_oracle.check_midrun ~run ~frontier:(Some Engine_oracle.gidnet_frontier));
        ] );
    ]
