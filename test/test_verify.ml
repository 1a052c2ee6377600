(* Unit and property tests for the Verify translation-validation library:
   the three checkers in isolation, an injected compiler bug that at
   least two checkers must reject, and the suite-wide sweep asserting
   every strategy's output verifies against the untransformed input. *)

let check = Alcotest.check
let bool = Alcotest.bool

let mumbai = Hardware.Device.mumbai
let bv n = Benchmarks.Bv.circuit n

let is_equivalent = Verify.Verdict.is_equivalent
let is_inequivalent = Verify.Verdict.is_inequivalent

let inconclusive = function Verify.Inconclusive _ -> true | _ -> false

(* ------------------------------------------------------------- verdict *)

let test_verdict_combine () =
  let cex =
    { Verify.Verdict.outcome = 0; p_left = 0.; p_right = 1.; detail = "x" }
  in
  check bool "empty is equivalent" true
    (is_equivalent (Verify.Verdict.combine []));
  check bool "inequivalent dominates" true
    (is_inequivalent
       (Verify.Verdict.combine
          [ Verify.Equivalent; Verify.Inconclusive "n"; Verify.Inequivalent cex ]));
  check bool "inconclusive beats equivalent" true
    (inconclusive
       (Verify.Verdict.combine [ Verify.Equivalent; Verify.Inconclusive "n" ]))

(* --------------------------------------------------------------- equiv *)

let test_equiv_reflexive () =
  let c = bv 6 in
  check bool "bv6 = bv6" true
    (is_equivalent (Verify.Equiv.check ~original:c ~transformed:c ()))

let test_equiv_accepts_reuse () =
  let c = bv 8 in
  let reused = Caqr.Qs_caqr.max_reuse c in
  check bool "max-reuse bv8 is equivalent" true
    (is_equivalent (Verify.Equiv.check ~original:c ~transformed:reused ()))

let test_equiv_detects_flip () =
  let c = bv 5 in
  (* Flip one answer qubit right before its final measurement. *)
  let broken =
    Quantum.Circuit.of_kinds ~num_qubits:c.Quantum.Circuit.num_qubits
      ~num_clbits:c.Quantum.Circuit.num_clbits
      (Array.to_list (Array.map (fun g -> g.Quantum.Gate.kind) c.Quantum.Circuit.gates)
      @ [ Quantum.Gate.One_q (Quantum.Gate.X, 0);
          Quantum.Gate.Measure (0, 0) ])
  in
  check bool "flipped bit detected" true
    (is_inequivalent (Verify.Equiv.check ~original:c ~transformed:broken ()))

let test_equiv_budget () =
  let c = (Benchmarks.Suite.find "Multiply_13").Benchmarks.Suite.circuit in
  check bool "13 qubits exceed the exact budget" true
    (inconclusive (Verify.Equiv.check ~original:c ~transformed:c ()))

let reason = function Verify.Inconclusive why -> why | _ -> "not inconclusive"

(* [rounds] rounds of [h q[0]; measure q[0] -> c[i]]: every measurement
   but the trailing one branches, so the branch count is 2^(rounds - 1). *)
let coin_flips rounds =
  let b = Quantum.Circuit.Builder.create ~num_qubits:1 ~num_clbits:rounds in
  for i = 0 to rounds - 1 do
    Quantum.Circuit.Builder.h b 0;
    Quantum.Circuit.Builder.measure b 0 i
  done;
  Quantum.Circuit.Builder.build b

let test_equiv_branch_budget () =
  let c = coin_flips 15 in
  check bool "15 rounds fit 16384 branches" true
    (is_equivalent (Verify.Equiv.check ~original:c ~transformed:c ()));
  let c = coin_flips 16 in
  check Alcotest.string "16 rounds exceed the branch budget"
    "original: more than 16384 measurement branches"
    (reason (Verify.Equiv.check ~original:c ~transformed:c ()))

let test_equiv_clbit_budget () =
  let wide_creg k =
    let b = Quantum.Circuit.Builder.create ~num_qubits:1 ~num_clbits:k in
    Quantum.Circuit.Builder.x b 0;
    Quantum.Circuit.Builder.measure b 0 (k - 1);
    Quantum.Circuit.Builder.build b
  in
  let c = wide_creg 20 in
  check bool "20 clbits fit" true
    (is_equivalent (Verify.Equiv.check ~original:c ~transformed:c ()));
  let c = wide_creg 21 in
  check Alcotest.string "21 clbits exceed the clbit budget"
    "original: circuit has 21 clbits (exact limit 20)"
    (reason (Verify.Equiv.check ~original:c ~transformed:c ()))

let test_equiv_elides_swaps () =
  (* A routed artifact is wider than its logical source only through
     SWAP traffic; elision must bring it back under the exact budget. *)
  let c = bv 10 in
  let physical = (Transpiler.Transpile.run mumbai c).Transpiler.Transpile.physical in
  check bool "routed bv10 verifies exactly" true
    (is_equivalent (Verify.Equiv.check ~original:c ~transformed:physical ()))

(* --------------------------------------------------------------- probe *)

let test_probe_accepts_reuse () =
  let c = bv 10 in
  let reused = Caqr.Qs_caqr.max_reuse c in
  check bool "probes accept max-reuse bv10" true
    (is_equivalent (Verify.Probe.check ~seed:3 ~original:c ~transformed:reused ()))

let test_probe_detects_flip () =
  let c = bv 10 in
  let broken =
    Quantum.Circuit.of_kinds ~num_qubits:c.Quantum.Circuit.num_qubits
      ~num_clbits:c.Quantum.Circuit.num_clbits
      (Array.to_list (Array.map (fun g -> g.Quantum.Gate.kind) c.Quantum.Circuit.gates)
      @ [ Quantum.Gate.One_q (Quantum.Gate.X, 0);
          Quantum.Gate.Measure (0, 0) ])
  in
  check bool "probes reject the flipped bit" true
    (is_inequivalent (Verify.Probe.check ~seed:3 ~original:c ~transformed:broken ()))

let test_probe_shared_clbit () =
  (* Both sides have only final measurements, so both are read off
     exactly; on the left the later write to c[0] (q[0], always 0) wins. *)
  let b = Quantum.Circuit.Builder.create ~num_qubits:2 ~num_clbits:1 in
  Quantum.Circuit.Builder.x b 1;
  Quantum.Circuit.Builder.measure b 1 0;
  Quantum.Circuit.Builder.measure b 0 0;
  let original = Quantum.Circuit.Builder.build b in
  let transformed =
    Quantum.Circuit.of_kinds ~num_qubits:1 ~num_clbits:1
      [ Quantum.Gate.Measure (0, 0) ]
  in
  check bool "later measurement wins" true
    (is_equivalent (Verify.Probe.check ~seed:3 ~original ~transformed ()))

(* ---------------------------------------------------------- structural *)

let test_structural_wellformed () =
  check bool "bv8 is well-formed" true
    (is_equivalent (Verify.Structural.check_wellformed (bv 8)))

let test_structural_pairs_accept_compiler () =
  let c = bv 8 in
  match List.rev (Caqr.Qs_caqr.sweep c) with
  | [] -> Alcotest.fail "empty sweep"
  | last :: _ ->
    let pairs =
      List.map
        (fun (p : Caqr.Reuse.pair) ->
          { Verify.Structural.src = p.Caqr.Reuse.src; dst = p.Caqr.Reuse.dst })
        last.Caqr.Engine.pairs
    in
    check bool "some pairs claimed" true (pairs <> []);
    check bool "compiler pairs satisfy conditions 1-2" true
      (is_equivalent (Verify.Structural.check_pairs ~original:c pairs))

let test_structural_condition1 () =
  let b = Quantum.Circuit.Builder.create ~num_qubits:2 ~num_clbits:2 in
  Quantum.Circuit.Builder.cx b 0 1;
  Quantum.Circuit.Builder.measure b 0 0;
  Quantum.Circuit.Builder.measure b 1 1;
  let c = Quantum.Circuit.Builder.build b in
  check bool "coupled pair rejected" true
    (is_inequivalent
       (Verify.Structural.check_pairs ~original:c
          [ { Verify.Structural.src = 0; dst = 1 } ]))

let test_structural_condition2 () =
  (* No gate couples q0 and q1, but CX(2,0) depends on CX(1,2) through
     wire 2 — a gate on the src transitively depends on the dst. *)
  let b = Quantum.Circuit.Builder.create ~num_qubits:3 ~num_clbits:3 in
  Quantum.Circuit.Builder.cx b 1 2;
  Quantum.Circuit.Builder.cx b 2 0;
  Quantum.Circuit.Builder.measure b 0 0;
  Quantum.Circuit.Builder.measure b 1 1;
  let c = Quantum.Circuit.Builder.build b in
  check bool "dependent pair rejected" true
    (is_inequivalent
       (Verify.Structural.check_pairs ~original:c
          [ { Verify.Structural.src = 0; dst = 1 } ]))

let test_structural_coupling () =
  (* Find a non-adjacent qubit pair on Mumbai and put a CX on it. *)
  let n = Hardware.Device.num_qubits mumbai in
  let bad = ref None in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if !bad = None && not (Hardware.Device.adjacent mumbai a b) then
        bad := Some (a, b)
    done
  done;
  match !bad with
  | None -> Alcotest.fail "mumbai is fully connected?"
  | Some (a, b) ->
    let ok = Quantum.Circuit.of_kinds ~num_qubits:n ~num_clbits:1 [] in
    check bool "empty circuit is legal" true
      (is_equivalent (Verify.Structural.check_coupling mumbai ok));
    let ill =
      Quantum.Circuit.of_kinds ~num_qubits:n ~num_clbits:1
        [ Quantum.Gate.Cx (a, b) ]
    in
    check bool "uncoupled CX rejected" true
      (is_inequivalent (Verify.Structural.check_coupling mumbai ill))

let test_structural_accounting () =
  let c = bv 5 in
  let missing =
    Quantum.Circuit.of_kinds ~num_qubits:c.Quantum.Circuit.num_qubits
      ~num_clbits:c.Quantum.Circuit.num_clbits
      (List.filter
         (function Quantum.Gate.Measure (_, 0) -> false | _ -> true)
         (Array.to_list
            (Array.map (fun g -> g.Quantum.Gate.kind) c.Quantum.Circuit.gates)))
  in
  check bool "dropped measurement rejected" true
    (is_inequivalent (Verify.Structural.check_accounting ~logical:c ~physical:missing))

(* ------------------------------------------- injected transformation bug *)

(* Swap the first measure/conditional-X block of a reuse-transformed
   circuit, the classic broken-transform: the conditional reset fires
   before the measurement writes its clbit. At least two independent
   checkers must reject it. *)
let swap_measure_init (c : Quantum.Circuit.t) =
  let kinds = Array.map (fun g -> g.Quantum.Gate.kind) c.Quantum.Circuit.gates in
  let swapped = ref false in
  for i = 0 to Array.length kinds - 2 do
    if not !swapped then
      match (kinds.(i), kinds.(i + 1)) with
      | Quantum.Gate.Measure (_, cb), Quantum.Gate.If_x (cb', _) when cb = cb' ->
        let t = kinds.(i) in
        kinds.(i) <- kinds.(i + 1);
        kinds.(i + 1) <- t;
        swapped := true
      | _ -> ()
  done;
  if not !swapped then Alcotest.fail "no measure/if_x block to break";
  Quantum.Circuit.of_kinds ~num_qubits:c.Quantum.Circuit.num_qubits
    ~num_clbits:c.Quantum.Circuit.num_clbits (Array.to_list kinds)

let test_injected_bug_rejected_twice () =
  let original = bv 10 in
  let broken = swap_measure_init (Caqr.Qs_caqr.max_reuse original) in
  check bool "structural checker rejects the swapped block" true
    (is_inequivalent (Verify.Structural.check_wellformed broken));
  check bool "exact checker rejects the swapped block" true
    (is_inequivalent (Verify.Equiv.check ~original ~transformed:broken ()))

(* ------------------------------------------------- pipeline integration *)

let strategies =
  [
    Caqr.Pipeline.Baseline;
    Caqr.Pipeline.Qs_max_reuse;
    Caqr.Pipeline.Qs_min_depth;
    Caqr.Pipeline.Qs_best_fidelity;
    Caqr.Pipeline.Qs_target 5;
    Caqr.Pipeline.Sr;
  ]

let test_pipeline_verifies_all_strategies () =
  let input = Caqr.Pipeline.Regular (bv 10) in
  List.iter
    (fun s ->
      let options =
        { Caqr.Pipeline.default with verify = Some Verify.Auto; seed = 5 }
      in
      let r = Caqr.Pipeline.compile ~options mumbai s input in
      match r.Caqr.Pipeline.verification with
      | Some v ->
        check bool
          (Printf.sprintf "%s verifies on bv10" (Caqr.Pipeline.strategy_name s))
          true (is_equivalent v)
      | None -> Alcotest.fail "verification missing from the report")
    strategies

let test_pipeline_skips_verification_by_default () =
  let r = Caqr.Pipeline.compile mumbai Caqr.Pipeline.Sr (Caqr.Pipeline.Regular (bv 6)) in
  check bool "no verdict unless asked" true (r.Caqr.Pipeline.verification = None)

(* Same options record, same result — the options API (sole compile
   entry point now the PR 2 legacy shim is gone) must be reproducible
   field-for-field. *)
let test_compile_options_reproducible () =
  let input = Caqr.Pipeline.Regular (bv 6) in
  let options =
    { Caqr.Pipeline.default with verify = Some Verify.Static; seed = 3 }
  in
  let r1 = Caqr.Pipeline.compile ~options mumbai Caqr.Pipeline.Sr input in
  let r2 = Caqr.Pipeline.compile ~options mumbai Caqr.Pipeline.Sr input in
  check bool "same physical circuit" true
    (r1.Caqr.Pipeline.physical = r2.Caqr.Pipeline.physical);
  check bool "same verdict" true
    (r1.Caqr.Pipeline.verification = r2.Caqr.Pipeline.verification)

(* ----------------------------------------------------------- suite sweep *)

let sweep_strategies =
  [ Caqr.Pipeline.Qs_max_reuse; Caqr.Pipeline.Qs_min_depth; Caqr.Pipeline.Sr ]

let assert_strategies_verify ~level ~expect e =
  List.iter
    (fun s ->
      let options =
        { Caqr.Pipeline.default with verify = Some level; seed = 11 }
      in
      let r = Caqr.Pipeline.compile ~options mumbai s (Benchmarks.Suite.input e) in
      let name =
        Printf.sprintf "%s / %s" e.Benchmarks.Suite.name
          (Caqr.Pipeline.strategy_name s)
      in
      match r.Caqr.Pipeline.verification with
      | Some v -> (
        match expect with
        | `Equivalent -> check bool name true (is_equivalent v)
        | `Not_inequivalent -> check bool name false (is_inequivalent v))
      | None -> Alcotest.fail (name ^ ": verification missing"))
    sweep_strategies

(* Entries inside the exact checker's budget get the complete argument;
   wider ones fall back to seeded probes inside the Auto level. *)
let test_suite_exact_entries () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      if e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits <= 12 then
        assert_strategies_verify ~level:Verify.Auto ~expect:`Equivalent e)
    (Benchmarks.Suite.table1 ())

let test_suite_probe_entries () =
  List.iter
    (fun name ->
      assert_strategies_verify ~level:Verify.Auto ~expect:`Equivalent
        (Benchmarks.Suite.find name))
    [ "Multiply_13"; "QAOA15-0.3" ]

(* QAOA-20/25 are beyond what probes afford in a unit-test budget; the
   structural pass must still accept them, and the semantic orchestrator
   must degrade to Inconclusive rather than overclaim either way. *)
let test_suite_wide_entries () =
  assert_strategies_verify ~level:Verify.Static ~expect:`Equivalent
    (Benchmarks.Suite.find "QAOA20-0.3");
  assert_strategies_verify ~level:Verify.Static ~expect:`Equivalent
    (Benchmarks.Suite.find "QAOA25-0.3")

let test_qaoa25_never_inequivalent () =
  let e = Benchmarks.Suite.find "QAOA25-0.3" in
  let r =
    Caqr.Pipeline.compile
      ~options:{ Caqr.Pipeline.default with verify = Some Verify.Auto; seed = 11 }
      mumbai Caqr.Pipeline.Qs_min_depth (Benchmarks.Suite.input e)
  in
  match r.Caqr.Pipeline.verification with
  | Some v -> check bool "qaoa25 degrades honestly" false (is_inequivalent v)
  | None -> Alcotest.fail "verification missing"

(* ----------------------------------------- flat vs reference verifier *)

(* [Verify.Structural] against the list-based verifier it replaced
   ([Structural_ref], frozen): the same verdict, message included, on
   generated dynamic circuits (barriers, mid-circuit measures, shared
   clbits), on every pair certificate the reuse engines return for them,
   and on those certificates mutated into invalid sequences. *)

let to_ref ps =
  List.map
    (fun (p : Verify.Structural.pair) ->
      { Structural_ref.src = p.Verify.Structural.src; dst = p.Verify.Structural.dst })
    ps

let pairs_agree original ps =
  Verify.Structural.check_pairs ~original ps
  = Structural_ref.check_pairs ~original (to_ref ps)

let of_reuse ps =
  List.map
    (fun (p : Caqr.Reuse.pair) ->
      { Verify.Structural.src = p.Caqr.Reuse.src; dst = p.Caqr.Reuse.dst })
    ps

(* The certificates of every engine that names one. *)
let certificates c =
  let device = Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits in
  List.filter_map
    (fun (_, engine) ->
      match (engine device (Caqr.Engine.Regular c)).Caqr.Engine.pairs with
      | Some ps -> Some (of_reuse ps)
      | None -> None)
    Caqr.Pipeline.engines
  @ List.map
      (fun (s : Caqr.Engine.step) -> of_reuse s.Caqr.Engine.pairs)
      (Caqr.Qs_caqr.sweep c)

(* Invalid variants of a certificate: shuffled, reversed, a dst hosted
   twice, an operand out of range, and a pair on two coupled wires (or
   on one wire). *)
let mutations rng (c : Quantum.Circuit.t) ps =
  let nq = c.Quantum.Circuit.num_qubits in
  let arr = Array.of_list ps in
  let shuffled = Array.copy arr in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Exec.Prng.int rng (i + 1) in
    let t = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- t
  done;
  let pick () = arr.(Exec.Prng.int rng (Array.length arr)) in
  let coupled =
    Array.fold_left
      (fun acc g ->
        match g.Quantum.Gate.kind with
        | Quantum.Gate.Cx (a, b) | Quantum.Gate.Cz (a, b) ->
          { Verify.Structural.src = a; dst = b } :: acc
        | _ -> acc)
      [] c.Quantum.Circuit.gates
  in
  let some_coupled =
    match coupled with
    | [] -> { Verify.Structural.src = 0; dst = 0 }
    | l -> List.nth l (Exec.Prng.int rng (List.length l))
  in
  let at = Exec.Prng.int rng (Array.length arr + 1) in
  let insert p = List.filteri (fun i _ -> i < at) ps @ (p :: List.filteri (fun i _ -> i >= at) ps) in
  [ Array.to_list shuffled; List.rev ps ]
  @ (if arr = [||] then []
     else
       let p = pick () and q = pick () in
       [
         ps @ [ { p with Verify.Structural.src = q.Verify.Structural.src } ];
         insert { p with Verify.Structural.src = (p.Verify.Structural.dst + 1) mod max 1 nq };
       ])
  @ [
      insert { Verify.Structural.src = nq; dst = 0 };
      insert { Verify.Structural.src = 0; dst = -1 };
      insert some_coupled;
      [ some_coupled ];
    ]

let prop_pairs_match_reference =
  QCheck.Test.make ~name:"structural: check_pairs = reference" ~count:120
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Exec.Prng.make seed in
      let c = Fuzz.Gen.circuit Fuzz.Gen.default rng in
      List.for_all
        (fun ps ->
          pairs_agree c ps
          && List.for_all (pairs_agree c) (mutations rng c ps))
        (certificates c))

(* Gate-level mutations for the single-circuit checks: the circuit with
   one gate moved to the front (a conditional X can then read its clbit
   before any measurement writes it). *)
let moved_to_front rng (c : Quantum.Circuit.t) =
  let kinds = Array.to_list (Array.map (fun g -> g.Quantum.Gate.kind) c.Quantum.Circuit.gates) in
  match kinds with
  | [] -> c
  | _ ->
    let i = Exec.Prng.int rng (List.length kinds) in
    Quantum.Circuit.of_kinds ~num_qubits:c.Quantum.Circuit.num_qubits
      ~num_clbits:c.Quantum.Circuit.num_clbits
      (List.nth kinds i :: List.filteri (fun j _ -> j <> i) kinds)

let prop_circuit_checks_match_reference =
  QCheck.Test.make
    ~name:"structural: wellformed, coupling = reference" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Exec.Prng.make seed in
      let c = Fuzz.Gen.circuit Fuzz.Gen.default rng in
      List.for_all
        (fun c ->
          Verify.Structural.check_wellformed c = Structural_ref.check_wellformed c
          && List.for_all
               (fun device ->
                 Verify.Structural.check_coupling device c
                 = Structural_ref.check_coupling device c)
               [ Hardware.Device.heavy_hex_for 3; mumbai ])
        [ c; moved_to_front rng c; moved_to_front rng c ])

(* The mutations above must reach every verdict the pair checker can
   return, or the agreement shows little. *)
let test_pairs_reference_covers_verdicts () =
  let seen = Hashtbl.create 8 in
  for seed = 1 to 200 do
    let rng = Exec.Prng.make seed in
    let c = Fuzz.Gen.circuit Fuzz.Gen.default rng in
    List.iter
      (fun ps ->
        List.iter
          (fun ps ->
            let key =
              match Verify.Structural.check_pairs ~original:c ps with
              | Verify.Equivalent -> "equivalent"
              | Verify.Inequivalent { Verify.Verdict.detail; _ } ->
                List.find
                  (fun k ->
                    let n = String.length k and m = String.length detail in
                    let rec at i = i + n <= m && (String.sub detail i n = k || at (i + 1)) in
                    at 0)
                  [ "operands invalid"; "carries no gate"; "Condition 1"; "Condition 2"; "cycle" ]
              | Verify.Inconclusive _ -> "inconclusive"
            in
            Hashtbl.replace seen key ())
          (ps :: mutations rng c ps))
      (certificates c)
  done;
  List.iter
    (fun k -> check bool ("reached: " ^ k) true (Hashtbl.mem seen k))
    [ "equivalent"; "operands invalid"; "carries no gate"; "Condition 1"; "Condition 2" ]

let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xca9; Hashtbl.hash name |])
    t

let () =
  Alcotest.run "verify"
    [
      ( "verdict",
        [ Alcotest.test_case "combine" `Quick test_verdict_combine ] );
      ( "equiv",
        [
          Alcotest.test_case "reflexive" `Quick test_equiv_reflexive;
          Alcotest.test_case "accepts reuse" `Quick test_equiv_accepts_reuse;
          Alcotest.test_case "detects flip" `Quick test_equiv_detects_flip;
          Alcotest.test_case "budget" `Quick test_equiv_budget;
          Alcotest.test_case "branch budget" `Quick test_equiv_branch_budget;
          Alcotest.test_case "clbit budget" `Quick test_equiv_clbit_budget;
          Alcotest.test_case "elides swaps" `Quick test_equiv_elides_swaps;
        ] );
      ( "probe",
        [
          Alcotest.test_case "accepts reuse" `Quick test_probe_accepts_reuse;
          Alcotest.test_case "detects flip" `Quick test_probe_detects_flip;
          Alcotest.test_case "shared clbit" `Quick test_probe_shared_clbit;
        ] );
      ( "structural",
        [
          Alcotest.test_case "wellformed" `Quick test_structural_wellformed;
          Alcotest.test_case "accepts compiler pairs" `Quick
            test_structural_pairs_accept_compiler;
          Alcotest.test_case "condition 1" `Quick test_structural_condition1;
          Alcotest.test_case "condition 2" `Quick test_structural_condition2;
          Alcotest.test_case "coupling" `Quick test_structural_coupling;
          Alcotest.test_case "accounting" `Quick test_structural_accounting;
          to_alcotest prop_pairs_match_reference;
          to_alcotest prop_circuit_checks_match_reference;
          Alcotest.test_case "reference agreement covers every verdict" `Quick
            test_pairs_reference_covers_verdicts;
        ] );
      ( "injected-bug",
        [
          Alcotest.test_case "rejected by two checkers" `Quick
            test_injected_bug_rejected_twice;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "all strategies verify" `Quick
            test_pipeline_verifies_all_strategies;
          Alcotest.test_case "off by default" `Quick
            test_pipeline_skips_verification_by_default;
          Alcotest.test_case "options reproducible" `Quick
            test_compile_options_reproducible;
        ] );
      ( "suite",
        [
          Alcotest.test_case "exact entries" `Slow test_suite_exact_entries;
          Alcotest.test_case "probe entries" `Slow test_suite_probe_entries;
          Alcotest.test_case "wide entries" `Quick test_suite_wide_entries;
          Alcotest.test_case "qaoa25 honest" `Quick
            test_qaoa25_never_inequivalent;
        ] );
    ]
