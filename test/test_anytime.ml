(* The anytime contract of the QS search (the quality/time dial):

   - with no wall-clock deadline the result is [Exact] and identical to
     the deepest step of the sweep;
   - the returned width is monotonically non-increasing in the DFS node
     budget (a bigger budget explores a superset of the same
     deterministic DFS order) — checked over generated circuits;
   - an anytime return's pair list is a valid reuse certificate for the
     original circuit, revalidated by the independent structural
     checker, and bumps the ["qs.anytime.returns"] counter;
   - the engine ladder treats an anytime return as success: no
     degradation, exit through the normal pipeline path. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Small fuzz circuits keep the 5-budget sweep per seed cheap. *)
let small_cfg =
  {
    Fuzz.Gen.default with
    Fuzz.Gen.min_qubits = 4;
    max_qubits = 8;
    min_gates = 8;
    max_gates = 24;
  }

let gen_circuit seed = Fuzz.Gen.circuit small_cfg (Exec.Prng.make seed)

let quality_name a = Caqr.Quality.name a.Caqr.Engine.quality

(* ---- Exact under unlimited budget ---- *)

let test_exact_without_deadline () =
  for seed = 1 to 10 do
    let c = gen_circuit seed in
    let a = Caqr.Qs_caqr.max_reuse_anytime c in
    check bool
      (Printf.sprintf "seed %d: exact" seed)
      true
      (Caqr.Quality.is_exact a.Caqr.Engine.quality);
    (* The sweep's deepest step is the independent witness. *)
    let plain = (List.hd (List.rev (Caqr.Qs_caqr.sweep c))).Caqr.Engine.circuit in
    check int
      (Printf.sprintf "seed %d: same width as the sweep" seed)
      (Caqr.Reuse.qubit_usage plain)
      a.Caqr.Engine.width;
    check bool
      (Printf.sprintf "seed %d: same circuit as the sweep" seed)
      true
      (Quantum.Circuit.digest plain = Quantum.Circuit.digest a.Caqr.Engine.circuit)
  done

(* A node cap ending the search is the configured engine's deterministic
   completion, not a deadline artifact — still Exact (the serve cache
   depends on Exact meaning reproducible). *)
let test_node_cap_still_exact () =
  let c = gen_circuit 3 in
  let opts = { Caqr.Qs_caqr.default_opts with Caqr.Qs_caqr.budget = 1 } in
  let a = Caqr.Qs_caqr.max_reuse_anytime ~opts c in
  check bool "node-capped run is exact" true
    (Caqr.Quality.is_exact a.Caqr.Engine.quality)

(* ---- width monotone in the node budget (property) ---- *)

let budgets = [ 0; 5; 20; 100; 1000 ]

let prop_width_monotone =
  QCheck.Test.make ~name:"anytime: width non-increasing in node budget"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = gen_circuit seed in
      let widths =
        List.map
          (fun budget ->
            let opts = { Caqr.Qs_caqr.default_opts with Caqr.Qs_caqr.budget } in
            (Caqr.Qs_caqr.max_reuse_anytime ~opts c).Caqr.Engine.width)
          budgets
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      non_increasing widths)

let prop_width_never_above_baseline =
  QCheck.Test.make ~name:"anytime: width never exceeds the input's"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = gen_circuit seed in
      let a = Caqr.Qs_caqr.max_reuse_anytime c in
      a.Caqr.Engine.width <= Caqr.Reuse.qubit_usage c)

(* ---- wall-clock trips: quality marker, metric, certificate ---- *)

let certify ~original pairs =
  let claimed =
    List.map
      (fun (p : Caqr.Reuse.pair) ->
        { Verify.Structural.src = p.Caqr.Reuse.src; dst = p.Caqr.Reuse.dst })
      pairs
  in
  Verify.Structural.check_pairs ~original claimed

(* qaoa-powerlaw-250 does not run exact inside 2.5 s (see the bench
   anytime curves), so a sub-second deadline always trips, after the
   search has found some pairs. *)
let anytime_run () =
  let c =
    (Option.get (Benchmarks.Large.find_opt "qaoa-powerlaw-250"))
      .Benchmarks.Large.build ()
  in
  let a =
    Guard.Budget.scoped
      (Guard.Budget.make ~ms:300 ())
      (fun () -> Caqr.Qs_caqr.max_reuse_anytime c)
  in
  (c, a)

let test_wall_trip_is_anytime () =
  Obs.Metrics.reset ();
  let _, a = anytime_run () in
  check bool "quality is anytime" false
    (Caqr.Quality.is_exact a.Caqr.Engine.quality);
  check bool "qs.anytime.returns bumped" true
    (Obs.Metrics.count "qs.anytime.returns" >= 1);
  check Alcotest.string "wire spelling" "anytime" (quality_name a)

let test_anytime_certificate_revalidates () =
  let original, a = anytime_run () in
  (match a.Caqr.Engine.quality with
   | Caqr.Quality.Anytime { steps_done; frontier_left } ->
     check bool "steps counted" true (steps_done >= 0);
     check bool "frontier non-negative" true (frontier_left >= 0)
   | Caqr.Quality.Exact -> Alcotest.fail "expected an anytime return");
  match certify ~original (Option.get a.Caqr.Engine.pairs) with
  | Verify.Verdict.Equivalent -> ()
  | Verify.Verdict.Inequivalent x ->
    Alcotest.fail ("anytime certificate refuted: " ^ x.Verify.Verdict.detail)
  | Verify.Verdict.Inconclusive why ->
    Alcotest.fail ("anytime certificate inconclusive: " ^ why)

let test_anytime_width_below_input () =
  let c, a = anytime_run () in
  check bool "anytime width <= input width" true
    (a.Caqr.Engine.width <= Caqr.Reuse.qubit_usage c)

let multiply_13 () =
  (Benchmarks.Suite.find "Multiply_13").Benchmarks.Suite.circuit

(* To trip at a known node the armed ["qs.search"] site sleeps past the
   wall budget at its [hit]-th DFS node, and the checkpoint right after
   it raises. *)
let trip_at hit c =
  Guard.Inject.arm ~at_hit:hit ~mode:(Guard.Inject.Delay_ms 250) "qs.search";
  Fun.protect ~finally:Guard.Inject.disarm (fun () ->
      Guard.Budget.scoped
        (Guard.Budget.make ~ms:150 ())
        (fun () -> Caqr.Qs_caqr.max_reuse_anytime c))

(* The incumbent's circuit is built only when it is returned, so on a
   trip it is built on the exception path. The returned circuit must be
   iterated [Reuse.apply] of the returned pairs. *)
let test_tripped_incumbent_is_iterated_apply () =
  let c = multiply_13 () in
  List.iter
    (fun hit ->
      let a = trip_at hit c in
      let label = Printf.sprintf "trip at node %d" hit in
      check bool (label ^ ": anytime") false
        (Caqr.Quality.is_exact a.Caqr.Engine.quality);
      let pairs = Option.get a.Caqr.Engine.pairs in
      check bool (label ^ ": incumbent has pairs") true (pairs <> []);
      check Alcotest.string
        (label ^ ": circuit = iterated apply")
        (Quantum.Qasm.to_string (List.fold_left Caqr.Reuse.apply c pairs))
        (Quantum.Qasm.to_string a.Caqr.Engine.circuit))
    [ 20; 100; 300 ]

(* The incumbent bookkeeping, pinned: tripped at a known DFS node, the
   returned width, pair count, [steps_done] (nodes the DFS derived) and
   [frontier_left] (untried branches on the live DFS stack) are fixed
   numbers. The trips at 300 and 600 land in the [Chain] DFS, whose
   stack is the only live one: [Score]'s ended at the node cap. *)
let test_tripped_incumbent_markers () =
  let c = multiply_13 () in
  List.iter
    (fun (hit, width, pairs, steps, frontier) ->
      let a = trip_at hit c in
      let label = Printf.sprintf "trip at node %d" hit in
      check int (label ^ ": width") width a.Caqr.Engine.width;
      check int (label ^ ": pairs") pairs
        (List.length (Option.get a.Caqr.Engine.pairs));
      match a.Caqr.Engine.quality with
      | Caqr.Quality.Anytime { steps_done; frontier_left } ->
        check int (label ^ ": steps_done") steps steps_done;
        check int (label ^ ": frontier_left") frontier frontier_left
      | Caqr.Quality.Exact -> Alcotest.fail (label ^ ": expected anytime"))
    [
      (20, 7, 6, 19, 161);
      (100, 7, 6, 65, 158);
      (300, 7, 6, 150, 134);
      (600, 7, 6, 307, 130);
    ]

(* ---- search_anytime: target contract ---- *)

let test_search_anytime_exact_on_reachable () =
  let c = Benchmarks.Bv.circuit 5 in
  match Caqr.Qs_caqr.search_anytime ~target:2 c with
  | Some a ->
    check bool "reached target exactly" true
      (Caqr.Quality.is_exact a.Caqr.Engine.quality);
    check bool "width at or under target" true (a.Caqr.Engine.width <= 2)
  | None -> Alcotest.fail "BV_5 reduces to 2 qubits"

let test_search_anytime_none_when_unreachable () =
  (* Fully entangling: no reuse at all, so target 1 is unreachable and
     the space exhausts without a wall trip. *)
  let b = Quantum.Circuit.Builder.create ~num_qubits:3 ~num_clbits:0 in
  Quantum.Circuit.Builder.cx b 0 1;
  Quantum.Circuit.Builder.cx b 1 2;
  Quantum.Circuit.Builder.cx b 0 2;
  let c = Quantum.Circuit.Builder.build b in
  check bool "unreachable target is None" true
    (Caqr.Qs_caqr.search_anytime ~target:1 c = None)

let () =
  Alcotest.run "anytime"
    [
      ( "exact",
        [
          Alcotest.test_case "no deadline -> Exact, same as max_reuse" `Quick
            test_exact_without_deadline;
          Alcotest.test_case "node cap stays Exact" `Quick
            test_node_cap_still_exact;
        ] );
      ( "monotone",
        [
          QCheck_alcotest.to_alcotest prop_width_monotone;
          QCheck_alcotest.to_alcotest prop_width_never_above_baseline;
        ] );
      ( "wall-trip",
        [
          Alcotest.test_case "trip tags Anytime and bumps the metric" `Quick
            test_wall_trip_is_anytime;
          Alcotest.test_case "partial certificate revalidates" `Quick
            test_anytime_certificate_revalidates;
          Alcotest.test_case "width never above the input" `Quick
            test_anytime_width_below_input;
          Alcotest.test_case "tripped incumbent = iterated apply" `Quick
            test_tripped_incumbent_is_iterated_apply;
          Alcotest.test_case "tripped incumbent markers" `Quick
            test_tripped_incumbent_markers;
        ] );
      ( "search",
        [
          Alcotest.test_case "reachable target -> Exact" `Quick
            test_search_anytime_exact_on_reachable;
          Alcotest.test_case "unreachable target -> None" `Quick
            test_search_anytime_none_when_unreachable;
        ] );
    ]
