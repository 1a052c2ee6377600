(* Unit tests for QS-CaQR on regular circuits: greedy sweep, backtracking
   search, budget queries. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_reduce_once_bv () =
  match Caqr.Qs_caqr.reduce_once (Benchmarks.Bv.circuit 5) with
  | Some (_, c') -> check int "one fewer qubit" 4 (Caqr.Reuse.qubit_usage c')
  | None -> Alcotest.fail "BV must have reuse"

let test_reduce_once_none_on_dense () =
  (* Fully entangling circuit: every pair of qubits shares a gate. *)
  let b = Quantum.Circuit.Builder.create ~num_qubits:3 ~num_clbits:0 in
  Quantum.Circuit.Builder.cx b 0 1;
  Quantum.Circuit.Builder.cx b 1 2;
  Quantum.Circuit.Builder.cx b 0 2;
  check bool "no reuse" true (Caqr.Qs_caqr.reduce_once (Quantum.Circuit.Builder.build b) = None)

(* The greedy step is the sweep's first step: same pair, same circuit,
   and no step exactly when the sweep stops at the input. *)
let prop_reduce_once_is_sweep_row_1 =
  QCheck.Test.make ~name:"reduce_once = row 1 of sweep" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let c = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make seed) in
      match (Caqr.Qs_caqr.reduce_once c, Caqr.Qs_caqr.sweep c) with
      | None, [ _ ] -> true
      | Some (pair, c'), _ :: (row : Caqr.Engine.step) :: _ ->
        row.pairs = [ pair ] && row.circuit = c'
      | _ -> false)

let test_sweep_monotone_usage () =
  let steps = Caqr.Qs_caqr.sweep (Benchmarks.Bv.circuit 8) in
  let usages = List.map (fun (s : Caqr.Engine.step) -> s.usage) steps in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  check bool "usage strictly decreases" true (strictly_decreasing usages);
  check int "starts at original" 8 (List.hd usages)

let test_sweep_depth_never_shrinks_much () =
  (* Logical depth is nondecreasing along the sweep (each reuse only adds
     constraints). *)
  let steps = Caqr.Qs_caqr.sweep (Benchmarks.Bv.circuit 8) in
  let depths = List.map (fun (s : Caqr.Engine.step) -> s.depth) steps in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  check bool "depth nondecreasing" true (nondecreasing depths)

let test_sweep_records_pairs () =
  let steps = Caqr.Qs_caqr.sweep (Benchmarks.Bv.circuit 5) in
  List.iteri
    (fun i (s : Caqr.Engine.step) ->
      check int "pair per step" i (List.length s.pairs))
    steps

let test_bv_min_is_two () =
  List.iter
    (fun n ->
      check int
        (Printf.sprintf "BV_%d -> 2" n)
        2
        (Caqr.Qs_caqr.min_qubits (Benchmarks.Bv.circuit n)))
    [ 3; 5; 10 ]

let test_search_reaches_target () =
  match Caqr.Qs_caqr.search_anytime ~target:2 (Benchmarks.Bv.circuit 10) with
  | Some { Caqr.Engine.circuit = c; pairs = Some pairs; _ } ->
    check int "2 qubits" 2 (Caqr.Reuse.qubit_usage c);
    check int "8 reuse pairs" 8 (List.length pairs)
  | Some { pairs = None; _ } | None -> Alcotest.fail "search must succeed"

let test_search_impossible_target () =
  check bool "cannot reach 1" true
    (Caqr.Qs_caqr.search_anytime ~target:1 (Benchmarks.Bv.circuit 5) = None)

let test_target_query_semantics () =
  let c = Benchmarks.Bv.circuit 8 in
  match Caqr.Qs_caqr.search_anytime ~target:3 c with
  | Some { Caqr.Engine.circuit = c'; _ } ->
    check bool "at most 3" true (Caqr.Reuse.qubit_usage c' <= 3);
    let d0 = Sim.Executor.run ~seed:1 ~shots:64 c in
    let d1 = Sim.Executor.run ~seed:2 ~shots:64 c' in
    check (Alcotest.float 1e-9) "secret preserved" 0. (Sim.Counts.tvd d0 d1)
  | None -> Alcotest.fail "target 3 reachable"

let test_opportunity () =
  check bool "BV has opportunity" true
    (Caqr.Reuse.valid_pairs (Caqr.Reuse.analyze (Benchmarks.Bv.circuit 4)) <> []);
  let b = Quantum.Circuit.Builder.create ~num_qubits:2 ~num_clbits:0 in
  Quantum.Circuit.Builder.cx b 0 1;
  check bool "2q fully coupled: none" true
    (Caqr.Reuse.valid_pairs (Caqr.Reuse.analyze (Quantum.Circuit.Builder.build b)) = [])

let test_regular_benchmarks_reduce () =
  (* Every Table 1 regular benchmark has at least one reuse opportunity. *)
  List.iter
    (fun e ->
      let c = e.Benchmarks.Suite.circuit in
      check bool e.Benchmarks.Suite.name true
        (Caqr.Qs_caqr.min_qubits c < Caqr.Reuse.qubit_usage c))
    (Benchmarks.Suite.regular ())

let test_multiply_semantics_after_max_reuse () =
  let c = Benchmarks.Revlib.multiply_13 () in
  let reused = Caqr.Qs_caqr.max_reuse c in
  let d0 = Sim.Executor.run ~seed:3 ~shots:32 c in
  let d1 = Sim.Executor.run ~seed:4 ~shots:32 reused in
  check (Alcotest.float 1e-9) "product preserved" 0. (Sim.Counts.tvd d0 d1)

let () =
  Alcotest.run "qs_caqr"
    [
      ( "reduce",
        [
          Alcotest.test_case "reduce once" `Quick test_reduce_once_bv;
          Alcotest.test_case "dense has none" `Quick test_reduce_once_none_on_dense;
          Alcotest.test_case "usage monotone" `Quick test_sweep_monotone_usage;
          Alcotest.test_case "depth monotone" `Quick test_sweep_depth_never_shrinks_much;
          Alcotest.test_case "pairs recorded" `Quick test_sweep_records_pairs;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x5eed |])
            prop_reduce_once_is_sweep_row_1;
        ] );
      ( "search",
        [
          Alcotest.test_case "bv min 2" `Quick test_bv_min_is_two;
          Alcotest.test_case "reaches target" `Quick test_search_reaches_target;
          Alcotest.test_case "impossible target" `Quick test_search_impossible_target;
          Alcotest.test_case "target query semantics" `Quick test_target_query_semantics;
        ] );
      ( "applicability",
        [
          Alcotest.test_case "opportunity" `Quick test_opportunity;
          Alcotest.test_case "all regular reduce" `Slow test_regular_benchmarks_reduce;
          Alcotest.test_case "multiply semantics" `Slow test_multiply_semantics_after_max_reuse;
        ] );
    ]
