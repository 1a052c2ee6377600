(* The QS width floor: a clique of mutually reaching qubits that no
   reuse sequence can put on fewer wires.

   - soundness: the floor never exceeds the exact minimum width, found
     here by exhaustive search over every valid reuse sequence of small
     generated circuits;
   - the Table-1 floors are pinned, including Multiply_13, where the
     floor sits one below the width the search reaches and so must not
     cut its last search short;
   - a [Qs_target] below the floor fails before expanding a DFS node,
     and the degradation ladder still demotes it as before. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xf100; Hashtbl.hash name |])
    t

(* Exact minimum width: the least qubit usage over every circuit
   reachable by valid reuse pairs, by depth-first search with a memo on
   the circuit digest (different pair orders often meet at one
   circuit). Exponential — for circuits of at most 7 qubits only. *)
let exact_min_width circuit =
  if circuit.Quantum.Circuit.num_qubits > 7 then
    invalid_arg "exact_min_width: more than 7 qubits";
  let memo = Hashtbl.create 1024 in
  let rec go c =
    let key = Quantum.Circuit.digest c in
    match Hashtbl.find_opt memo key with
    | Some w -> w
    | None ->
      let a = Caqr.Reuse.analyze c in
      let w =
        List.fold_left
          (fun best p -> min best (go (Caqr.Reuse.apply c p)))
          (Caqr.Reuse.usage a) (Caqr.Reuse.valid_pairs a)
      in
      Hashtbl.add memo key w;
      w
  in
  go circuit

let small_cfg =
  { Fuzz.Gen.default with Fuzz.Gen.min_qubits = 3; max_qubits = 7 }

let prop_floor_sound =
  QCheck.Test.make ~name:"floor <= exact minimum width" ~count:400
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let c = Fuzz.Gen.circuit small_cfg (Exec.Prng.make seed) in
      let floor = Caqr.Qs_caqr.width_floor c in
      let exact = exact_min_width c in
      floor <= exact)

(* On most generated circuits the search meets the floor, which is why
   the floor pays for itself: the descent's last, failing search is
   skipped. Soundness is all the property above asserts. *)
let test_floor_often_tight () =
  let met = ref 0 in
  for seed = 1 to 400 do
    let c = Fuzz.Gen.circuit small_cfg (Exec.Prng.make seed) in
    if Caqr.Qs_caqr.width_floor c = Caqr.Qs_caqr.min_qubits c then incr met
  done;
  Printf.printf "floor = QS width on %d of 400 circuits\n" !met;
  check bool "floor = QS width on most circuits" true (!met >= 300)

let circuit_of name = (Benchmarks.Suite.find name).Benchmarks.Suite.circuit

let test_table1_floors () =
  List.iter
    (fun name ->
      let c = circuit_of name in
      check int (name ^ ": floor = QS width") (Caqr.Qs_caqr.min_qubits c)
        (Caqr.Qs_caqr.width_floor c))
    [ "RD-32"; "4mod5"; "System_9"; "BV_10"; "CC_10"; "XOR_5" ];
  let c = circuit_of "Multiply_13" in
  check int "Multiply_13: floor" 6 (Caqr.Qs_caqr.width_floor c);
  check int "Multiply_13: QS width" 7 (Caqr.Qs_caqr.min_qubits c)

(* The floor of Multiply_13 is below its width, so the last search of
   its descent runs in full, up to the node cap: 823 DFS nodes, as
   before the floor existed, and no skip. The transposition table
   replays the subtrees it has already exhausted, so those nodes take
   312 incremental analyses (800 without it). *)
let test_floor_does_not_fire_below_width () =
  Obs.Metrics.reset ();
  ignore (Caqr.Qs_caqr.max_reuse_anytime (circuit_of "Multiply_13"));
  check int "no floor skip" 0 (Obs.Metrics.count "qs.search.floor_skips");
  check int "DFS nodes" 823 (Obs.Metrics.count "qs.search.nodes");
  check int "incremental analyses" 312
    (Obs.Metrics.count "reuse.analyze.incremental")

let bv10 () =
  let c = circuit_of "BV_10" in
  (Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits,
   Caqr.Pipeline.Regular c)

let test_target_below_floor_fails_fast () =
  let device, input = bv10 () in
  Obs.Metrics.reset ();
  (match Caqr.Pipeline.compile device (Caqr.Pipeline.Qs_target 1) input with
   | _ -> Alcotest.fail "BV_10 cannot run on 1 qubit"
   | exception Failure msg ->
     check Alcotest.string "failure" "Pipeline.compile: cannot reach 1 qubits"
       msg);
  check int "no DFS node" 0 (Obs.Metrics.count "qs.search.nodes");
  check int "one floor skip" 1 (Obs.Metrics.count "qs.search.floor_skips")

let test_target_below_floor_demotes () =
  let device, input = bv10 () in
  let r =
    Caqr.Pipeline.compile
      ~options:{ Caqr.Pipeline.default with Caqr.Pipeline.fallback = true }
      device (Caqr.Pipeline.Qs_target 1) input
  in
  let direct = Caqr.Pipeline.compile device Caqr.Pipeline.Qs_max_reuse input in
  check bool "demoted to qs-max-reuse" true
    (r.Caqr.Pipeline.strategy = Caqr.Pipeline.Qs_max_reuse);
  (match r.Caqr.Pipeline.degraded with
   | [ d ] ->
     check bool "from qs-target-1" true
       (d.Caqr.Pipeline.from_strategy = Caqr.Pipeline.Qs_target 1)
   | ds -> Alcotest.failf "expected one demotion, got %d" (List.length ds));
  check bool "same artifact as qs-max-reuse" true
    (Quantum.Qasm.to_string r.Caqr.Pipeline.physical
    = Quantum.Qasm.to_string direct.Caqr.Pipeline.physical)

let () =
  Alcotest.run "width_floor"
    [
      ( "soundness",
        [
          to_alcotest prop_floor_sound;
          Alcotest.test_case "floor often tight" `Quick test_floor_often_tight;
        ] );
      ( "table1",
        [
          Alcotest.test_case "pinned floors" `Quick test_table1_floors;
          Alcotest.test_case "Multiply_13 searches in full" `Quick
            test_floor_does_not_fire_below_width;
        ] );
      ( "qs_target",
        [
          Alcotest.test_case "below floor fails fast" `Quick
            test_target_below_floor_fails_fast;
          Alcotest.test_case "below floor demotes" `Quick
            test_target_below_floor_demotes;
        ] );
    ]
