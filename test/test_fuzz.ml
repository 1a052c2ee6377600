(* Tests for the differential fuzzing harness itself: PRNG stability and
   splitting, generator determinism and well-formedness, the shrinker on
   a synthetic oracle, corpus persistence, and a small oracle battery. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module G = Quantum.Gate
module C = Quantum.Circuit

let qasm = Quantum.Qasm.to_string

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let draws t = List.init 16 (fun _ -> Exec.Prng.bits64 t) in
  let a = draws (Exec.Prng.make 42) and b = draws (Exec.Prng.make 42) in
  check bool "same seed, same stream" true (a = b);
  let c = draws (Exec.Prng.make 43) in
  check bool "different seed, different stream" true (a <> c)

let test_prng_split_independent () =
  (* Child [i] must not depend on how many draws the parent made. *)
  let t1 = Exec.Prng.make 7 in
  let child_before = Exec.Prng.bits64 (Exec.Prng.split t1 3) in
  let t2 = Exec.Prng.make 7 in
  for _ = 1 to 100 do
    ignore (Exec.Prng.bits64 t2)
  done;
  let child_after = Exec.Prng.bits64 (Exec.Prng.split t2 3) in
  check bool "split ignores parent draws" true (child_before = child_after);
  let c0 = Exec.Prng.bits64 (Exec.Prng.split t1 0) in
  let c1 = Exec.Prng.bits64 (Exec.Prng.split t1 1) in
  check bool "children differ" true (c0 <> c1)

let test_prng_ranges () =
  let t = Exec.Prng.make 1 in
  for _ = 1 to 1000 do
    let n = Exec.Prng.int t 7 in
    check bool "int in bounds" true (n >= 0 && n < 7);
    let f = Exec.Prng.float t 2.5 in
    check bool "float in bounds" true (f >= 0.0 && f < 2.5)
  done;
  (match Exec.Prng.int t 0 with
   | _ -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument _ -> ());
  for _ = 1 to 200 do
    let v = Exec.Prng.weighted t [ (0, `Never); (3, `A); (1, `B) ] in
    check bool "zero weight never wins" true (v <> `Never)
  done

(* ---- Gen ---- *)

let test_gen_deterministic () =
  let mk () = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make 123) in
  check Alcotest.string "same rng, same circuit" (qasm (mk ())) (qasm (mk ()))

let test_gen_well_formed () =
  let cfg = Fuzz.Gen.default in
  for seed = 0 to 199 do
    let c = Fuzz.Gen.circuit cfg (Exec.Prng.make seed) in
    check bool "qubits in range" true
      (c.C.num_qubits >= cfg.Fuzz.Gen.min_qubits
      && c.C.num_qubits <= cfg.Fuzz.Gen.max_qubits);
    (* The optional measure-all tail may exceed max_gates slightly. *)
    check bool "enough gates" true (C.gate_count c >= cfg.Fuzz.Gen.min_gates);
    let written = Hashtbl.create 8 in
    Array.iter
      (fun g ->
        List.iter
          (fun q ->
            check bool "qubit id in range" true (q >= 0 && q < c.C.num_qubits))
          (G.qubits g.G.kind);
        match g.G.kind with
        | G.Measure (_, cb) -> Hashtbl.replace written cb ()
        | G.If_x (cb, _) ->
          check bool "if_x reads a written clbit" true (Hashtbl.mem written cb)
        | _ -> ())
      c.C.gates
  done

let test_gen_has_dynamic_ops () =
  (* Across a modest sample the generator must actually exercise the
     dynamic alphabet, or the oracles test nothing interesting. *)
  let seen = Hashtbl.create 4 in
  for seed = 0 to 99 do
    let c = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make seed) in
    Array.iter
      (fun g ->
        match g.G.kind with
        | G.Measure _ -> Hashtbl.replace seen `Measure ()
        | G.Reset _ -> Hashtbl.replace seen `Reset ()
        | G.If_x _ -> Hashtbl.replace seen `If_x ()
        | G.Barrier _ -> Hashtbl.replace seen `Barrier ()
        | _ -> ())
      c.C.gates
  done;
  check int "all four dynamic kinds appear" 4 (Hashtbl.length seen)

(* ---- Shrink ---- *)

let test_shrink_synthetic () =
  (* Oracle: "contains a CZ". Minimal failing circuit = exactly one CZ;
     everything else is noise the shrinker must strip. *)
  let b = C.Builder.create ~num_qubits:5 ~num_clbits:5 in
  C.Builder.h b 0;
  C.Builder.cx b 0 1;
  C.Builder.measure b 1 1;
  C.Builder.cz b 2 3;
  C.Builder.barrier b [ 0; 1; 2 ];
  C.Builder.if_x b 1 4;
  C.Builder.rz b 0.7 2;
  C.Builder.measure b 4 4;
  let c = C.Builder.build b in
  let has_cz c =
    Array.exists
      (fun g -> match g.G.kind with G.Cz _ -> true | _ -> false)
      c.C.gates
  in
  let m, checks = Fuzz.Shrink.minimize ~still_fails:has_cz c in
  check bool "still fails" true (has_cz m);
  check int "single gate remains" 1 (C.gate_count m);
  check bool "wires compacted" true (m.C.num_qubits <= 2);
  check bool "spent some checks" true (checks > 0)

let test_shrink_respects_budget () =
  let b = C.Builder.create ~num_qubits:3 ~num_clbits:0 in
  for _ = 1 to 30 do
    C.Builder.h b 0
  done;
  let c = C.Builder.build b in
  let m, checks = Fuzz.Shrink.minimize ~max_checks:5 ~still_fails:(fun _ -> true) c in
  check bool "budget respected" true (checks <= 5);
  check bool "result still fails trivially" true (C.gate_count m <= 30)

(* ---- Corpus ---- *)

let temp_corpus_dir () =
  let f = Filename.temp_file "caqr_corpus" "" in
  Sys.remove f;
  f

let test_corpus_roundtrip () =
  let dir = temp_corpus_dir () in
  let b = C.Builder.create ~num_qubits:2 ~num_clbits:1 in
  C.Builder.h b 0;
  C.Builder.measure b 0 0;
  let c = C.Builder.build b in
  let e =
    Fuzz.Corpus.add ~dir ~seed:99 ~oracle:Fuzz.Oracle.Roundtrip
      ~note:"synthetic entry" c
  in
  (match Fuzz.Corpus.load dir with
   | [ got ] ->
     check int "seed kept" 99 got.Fuzz.Corpus.seed;
     check Alcotest.string "oracle kept" "roundtrip"
       (Fuzz.Oracle.name got.Fuzz.Corpus.oracle);
     check Alcotest.string "note kept" "synthetic entry" got.Fuzz.Corpus.note;
     check Alcotest.string "circuit roundtrips" (qasm c)
       (qasm (Fuzz.Corpus.read_circuit ~dir got))
   | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
  (* A second finding from the same seed gets a distinct file name. *)
  let e2 =
    Fuzz.Corpus.add ~dir ~seed:99 ~oracle:Fuzz.Oracle.Roundtrip ~note:"again" c
  in
  check bool "no clobber" true (e.Fuzz.Corpus.file <> e2.Fuzz.Corpus.file);
  check int "two entries" 2 (List.length (Fuzz.Corpus.load dir))

let test_corpus_missing_dir () =
  check int "missing dir loads empty" 0
    (List.length (Fuzz.Corpus.load "/nonexistent/corpus/dir"))

(* ---- Engines oracle: the cross-engine battery ---- *)

let test_engines_clean_roster () =
  (* The production roster (the Pipeline.engines registry) must agree on
     generated circuits: every artifact well-formed, every certificate
     revalidating, every width inside [min engines, baseline]. *)
  for seed = 0 to 24 do
    let c = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make seed) in
    match Fuzz.Oracle.check_engines_with ~seed Fuzz.Oracle.cross_engines c with
    | Fuzz.Oracle.Pass -> ()
    | Fuzz.Oracle.Fail why -> Alcotest.failf "seed %d: %s" seed why
  done

(* The oracle's roster is the pipeline's engine registry, in registry
   order and under the strategy names: an engine registered once is
   fuzzed without a second hand-written list. *)
let test_engines_roster_is_registry () =
  check
    Alcotest.(list string)
    "roster names"
    (List.map
       (fun (s, _) -> Caqr.Pipeline.strategy_name s)
       Caqr.Pipeline.engines)
    (List.map fst Fuzz.Oracle.cross_engines);
  let c = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make 3) in
  List.iter2
    (fun (s, run) (name, check_run) ->
      let device = Hardware.Device.heavy_hex_for c.C.num_qubits in
      check bool (name ^ " runs the registry engine") true
        (run device (Caqr.Pipeline.Regular c) = check_run c
        && name = Caqr.Pipeline.strategy_name s))
    Caqr.Pipeline.engines Fuzz.Oracle.cross_engines

(* A deliberately buggy engine: it claims one wire fewer than its
   artifact actually uses. The battery's width-claim cross-check must
   outvote it against the honest engines. *)
let buggy_engine =
  ( "buggy",
    fun c ->
      let lie = max 0 (Caqr.Reuse.qubit_usage c - 1) in
      Caqr.Engine.of_pairs ~width:lie c [] )

let test_engines_buggy_caught_and_shrunk () =
  let roster = Fuzz.Oracle.cross_engines @ [ buggy_engine ] in
  let fails c =
    match Fuzz.Oracle.check_engines_with ~seed:11 roster c with
    | Fuzz.Oracle.Fail _ -> true
    | Fuzz.Oracle.Pass -> false
  in
  let c = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make 11) in
  check bool "buggy engine caught" true (fails c);
  (match Fuzz.Oracle.check_engines_with ~seed:11 roster c with
  | Fuzz.Oracle.Fail why ->
    (* The verdict must name the culprit, not just "failed". *)
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    check bool "failure names the buggy engine" true (contains why "buggy")
  | Fuzz.Oracle.Pass -> Alcotest.fail "expected a failure");
  (* The generic shrinker applies: a minimal repro still fails and the
     empty circuit (zero active wires, claim trivially honest) passes,
     so shrinking cannot overshoot to nothing. *)
  let m, _ = Fuzz.Shrink.minimize ~still_fails:fails c in
  check bool "minimized still fails" true (fails m);
  check bool "shrinker made progress" true (C.gate_count m < C.gate_count c);
  check bool "minimal repro keeps a live wire" true
    (Caqr.Reuse.qubit_usage m >= 1)

(* ---- Driver ---- *)

let test_driver_battery () =
  Obs.Metrics.reset ();
  let s = Fuzz.Driver.run ~seed:5 ~cases:40 () in
  check int "all cases ran" 40 (Obs.Metrics.count "fuzz.cases");
  check int "no failures on current compiler" 0 (List.length s.Fuzz.Driver.failures);
  (* Determinism: an identical run reports the identical summary. *)
  let s' = Fuzz.Driver.run ~seed:5 ~cases:40 () in
  check bool "replayed summary identical" true (s = s')

let () =
  Alcotest.run "fuzz"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independent" `Quick
            test_prng_split_independent;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
        ] );
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "well formed" `Quick test_gen_well_formed;
          Alcotest.test_case "dynamic ops" `Quick test_gen_has_dynamic_ops;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "synthetic oracle" `Quick test_shrink_synthetic;
          Alcotest.test_case "budget" `Quick test_shrink_respects_budget;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "missing dir" `Quick test_corpus_missing_dir;
        ] );
      ( "engines",
        [
          Alcotest.test_case "clean roster agrees" `Quick
            test_engines_clean_roster;
          Alcotest.test_case "buggy engine caught and shrunk" `Quick
            test_engines_buggy_caught_and_shrunk;
          Alcotest.test_case "roster is the registry" `Quick
            test_engines_roster_is_registry;
        ] );
      ( "driver",
        [ Alcotest.test_case "battery" `Quick test_driver_battery ] );
    ]
