(* Unit tests for the causal-cone reuse engine: hand-computed minimum
   widths on small known circuits, determinism, certificate validity,
   and the width-never-exceeds-baseline property over generated
   circuits. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module C = Quantum.Circuit
module B = Quantum.Circuit.Builder

let width_of c = (Caqr.Cone_caqr.run c).Caqr.Engine.width

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
    Printf.printf "pair certificate refuted: %s\n%!"
      x.Verify.Verdict.detail;
    false
  | Verify.Verdict.Inconclusive why ->
    Printf.printf "pair certificate inconclusive: %s\n%!" why;
    false

(* GHZ_3 = h 0; cx 0 1; cx 1 2; measure all. By hand: the only candidate
   is (src = 0, dst = 2) — cx couples (0,1) and (1,2), so Condition 1
   kills those, and q2's gates cannot reach back to q0 (q1 has no gate
   after cx 1 2 that touches q0). One fold, width 2; 2 is minimal since
   cx needs two live wires. *)
let test_ghz3_width () =
  let r = Caqr.Cone_caqr.run (Benchmarks.Extra.ghz 3) in
  check int "GHZ_3 -> 2 wires" 2 r.Caqr.Engine.width;
  check int "one fold" 1 (r.Caqr.Engine.reuses)

(* BV_n is the paper's star benchmark: every data qubit interacts only
   with the target, so after its measurement each data wire hosts the
   next. Minimum width 2 at every size. *)
let test_bv_min_is_two () =
  List.iter
    (fun n ->
      check int (Printf.sprintf "BV_%d -> 2" n) 2
        (width_of (Benchmarks.Bv.circuit n)))
    [ 3; 5; 10 ]

(* A teleport-style dynamic circuit: measure a wire, then condition a
   later wire's correction on the outcome. The measured wire is free for
   reuse the moment its cone completes, so the whole program fits on one
   wire. *)
let test_dynamic_ping_width_one () =
  let b = B.create ~num_qubits:2 ~num_clbits:2 in
  B.h b 0;
  B.measure b 0 0;
  B.if_x b 0 1;
  B.measure b 1 1;
  let c = B.build b in
  let r = Caqr.Cone_caqr.run c in
  check int "dynamic ping -> 1 wire" 1 r.Caqr.Engine.width;
  check bool "certificate revalidates" true
    (certify ~original:c (Option.get r.Caqr.Engine.pairs))

(* An actual teleportation skeleton is entangled across its whole
   lifetime: the Bell half q2 receives a correction after q0 and q1
   retire, and q2's early entangler reaches both through q1. No pair is
   valid; the cone walk must leave all three wires alone. *)
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
  let r = Caqr.Cone_caqr.run (B.build b) in
  check int "teleport skeleton stays at 3" 3 r.Caqr.Engine.width;
  check int "no pairs" 0 (r.Caqr.Engine.reuses)

let test_deterministic () =
  let c = Benchmarks.Revlib.cc 8 in
  let qasm r = Quantum.Qasm.to_string r.Caqr.Engine.circuit in
  let a = Caqr.Cone_caqr.run c and b = Caqr.Cone_caqr.run c in
  check Alcotest.string "same circuit bytes" (qasm a) (qasm b);
  check bool "same pairs" true (a.Caqr.Engine.pairs = b.Caqr.Engine.pairs)

(* The walk allocates every cone member exactly once: each qubit is
   folded onto a recycled wire at most once, and a folded qubit's own
   wire never rejoins the pool (its host's wire does). *)
let test_allocated_once () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let pairs =
        Option.get (Caqr.Cone_caqr.run e.Benchmarks.Suite.circuit).Caqr.Engine.pairs
      in
      let folded = List.map (fun (p : Caqr.Reuse.pair) -> p.Caqr.Reuse.dst) pairs in
      check int
        (e.Benchmarks.Suite.name ^ " folded once")
        (List.length folded)
        (List.length (List.sort_uniq compare folded));
      check bool
        (e.Benchmarks.Suite.name ^ " folded wires never host")
        true
        (List.for_all
           (fun (p : Caqr.Reuse.pair) -> not (List.mem p.Caqr.Reuse.src folded))
           pairs))
    (Benchmarks.Suite.regular ())

let test_regular_benchmarks_certify () =
  (* On every Table 1 regular benchmark the engine's pair certificate
     must revalidate against the independent structural checker, and the
     claimed width must match the transformed circuit. *)
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      let c = e.Benchmarks.Suite.circuit in
      let r = Caqr.Cone_caqr.run c in
      check int
        (e.Benchmarks.Suite.name ^ " width claim")
        (Caqr.Reuse.qubit_usage r.Caqr.Engine.circuit)
        r.Caqr.Engine.width;
      check bool
        (e.Benchmarks.Suite.name ^ " certificate")
        true
        (certify ~original:c (Option.get r.Caqr.Engine.pairs)))
    (Benchmarks.Suite.regular ())

(* Width never exceeds the baseline on arbitrary generated circuits —
   the same invariant the cross-engine fuzz oracle enforces, pinned here
   as a qcheck property so a regression fails fast with the seed. *)
let prop_width_le_baseline =
  QCheck.Test.make ~name:"cone width <= baseline" ~count:100
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make seed) in
      let r = Caqr.Cone_caqr.run c in
      r.Caqr.Engine.width <= Caqr.Reuse.qubit_usage c)

(* The flat engine against the list-based one it replaced
   (test/cone_ref.ml). *)
let reference = Cone_ref.run
let run = Caqr.Cone_caqr.run

let () =
  Alcotest.run "cone_caqr"
    [
      ( "widths",
        [
          Alcotest.test_case "ghz3" `Quick test_ghz3_width;
          Alcotest.test_case "bv min 2" `Quick test_bv_min_is_two;
          Alcotest.test_case "dynamic ping" `Quick test_dynamic_ping_width_one;
          Alcotest.test_case "teleport skeleton" `Quick
            test_teleport_skeleton_irreducible;
        ] );
      ( "structure",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "allocated once" `Quick test_allocated_once;
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
            (Engine_oracle.prop_fuzz ~name:"cone = reference on fuzz circuits"
               ~reference ~run);
          QCheck_alcotest.to_alcotest
            (Engine_oracle.prop_rand_dyn
               ~name:"cone = reference on rand_dyn 4-48" ~reference ~run);
          Alcotest.test_case "tripped budget" `Quick
            (Engine_oracle.check_tripped ~reference ~run);
          Alcotest.test_case "budget out mid-run" `Quick
            (Engine_oracle.check_midrun ~run ~frontier:None);
        ] );
    ]
