(* The incremental analysis engine must be invisible from the outside:
   [Reuse.apply_incremental] has to agree with a fresh [Reuse.analyze]
   of the transformed circuit on every observable, and [Qs_caqr.sweep]
   has to reproduce [Qs_caqr.reference_sweep] exactly. *)

(* Per-property seeded state, as in test_properties.ml: seeding from the
   name keeps runs reproducible without correlating the properties. *)
let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xca9; Hashtbl.hash name |])
    t

(* Random shallow circuits (same shape as test_properties.ml), paired
   with a choice stream that picks which valid pair to apply at each
   step of a reuse sequence. *)
let circuit_gen =
  QCheck.Gen.(
    sized_size (int_range 2 6) (fun n ->
        let gate =
          frequency
            [
              (3, map (fun q -> `H (q mod n)) (int_bound 100));
              ( 5,
                map2
                  (fun a b ->
                    let a = a mod n and b = b mod n in
                    if a = b then `H a else `Cx (a, b))
                  (int_bound 100) (int_bound 100) );
              (2, map (fun q -> `Rz (q mod n)) (int_bound 100));
            ]
        in
        map (fun gs -> (n, gs)) (list_size (int_range 1 25) gate)))

let spec_gen =
  QCheck.Gen.(pair circuit_gen (list_size (int_range 1 5) (int_bound 1000)))

let arb_spec =
  QCheck.make spec_gen ~print:(fun ((n, gs), ks) ->
      Printf.sprintf "n=%d gates=%d choices=[%s]" n (List.length gs)
        (String.concat ";" (List.map string_of_int ks)))

let build_measured (n, gs) =
  let b = Quantum.Circuit.Builder.create ~num_qubits:n ~num_clbits:n in
  List.iter
    (function
      | `H q -> Quantum.Circuit.Builder.h b q
      | `Cx (a, c) -> Quantum.Circuit.Builder.cx b a c
      | `Rz q -> Quantum.Circuit.Builder.rz b 0.3 q)
    gs;
  Quantum.Circuit.measure_all (Quantum.Circuit.Builder.build b)

(* Every observable the search engines read off an analysis. *)
let same_analysis inc fresh =
  let n = (Caqr.Reuse.circuit inc).Quantum.Circuit.num_qubits in
  let all_pairs =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            if src = dst then None else Some { Caqr.Reuse.src; dst })
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let valid = Caqr.Reuse.valid_pairs fresh in
  Caqr.Reuse.circuit inc = Caqr.Reuse.circuit fresh
  && Caqr.Reuse.usage inc = Caqr.Reuse.usage fresh
  && Caqr.Reuse.valid_pairs inc = valid
  && List.for_all
       (fun p ->
         Caqr.Reuse.condition1 inc p = Caqr.Reuse.condition1 fresh p
         && Caqr.Reuse.condition2 inc p = Caqr.Reuse.condition2 fresh p)
       all_pairs
  && List.for_all
       (fun p ->
         Caqr.Reuse.predict_depth inc p = Caqr.Reuse.predict_depth fresh p
         && Caqr.Reuse.predict_duration inc p
            = Caqr.Reuse.predict_duration fresh p
         && Caqr.Reuse.src_finish_depth inc p
            = Caqr.Reuse.src_finish_depth fresh p
         && Caqr.Reuse.dst_start_depth inc p
            = Caqr.Reuse.dst_start_depth fresh p)
       valid

let prop_incremental_matches_fresh =
  QCheck.Test.make ~name:"reuse: apply_incremental = fresh analyze" ~count:80
    arb_spec (fun (cspec, choices) ->
      let rec go a = function
        | [] -> true
        | k :: rest -> (
          match Caqr.Reuse.valid_pairs a with
          | [] -> true
          | pairs ->
            let p = List.nth pairs (k mod List.length pairs) in
            let a' = Caqr.Reuse.apply_incremental a p in
            let fresh = Caqr.Reuse.analyze (Caqr.Reuse.apply (Caqr.Reuse.circuit a) p) in
            same_analysis a' fresh && go a' rest)
      in
      go (Caqr.Reuse.analyze (build_measured cspec)) choices)

(* ---- search regression: the incremental sweep must be identical to
   the reference sweep ---- *)

let sweeps_agree c = Caqr.Qs_caqr.sweep c = Caqr.Qs_caqr.reference_sweep c

let prop_sweep_engines_agree =
  QCheck.Test.make ~name:"qs: engines produce identical sweeps" ~count:40
    (QCheck.make circuit_gen ~print:(fun (n, gs) ->
         Printf.sprintf "n=%d gates=%d" n (List.length gs)))
    (fun spec ->
      let c = build_measured spec in
      sweeps_agree c)

let test_suite_sweep_identical name () =
  let c = (Benchmarks.Suite.find name).Benchmarks.Suite.circuit in
  Alcotest.(check bool)
    (name ^ ": incremental sweep = reference sweep")
    true (sweeps_agree c)

let test_max_reuse_identical () =
  List.iter
    (fun name ->
      let c = (Benchmarks.Suite.find name).Benchmarks.Suite.circuit in
      let last = List.hd (List.rev (Caqr.Qs_caqr.reference_sweep c)) in
      Alcotest.(check bool) name true
        (Caqr.Qs_caqr.max_reuse c = last.Caqr.Engine.circuit))
    [ "BV_10"; "XOR_5"; "RD-32" ]

let () =
  Alcotest.run "incremental"
    [
      ( "analysis",
        [ to_alcotest prop_incremental_matches_fresh ] );
      ( "engines",
        [
          to_alcotest prop_sweep_engines_agree;
          Alcotest.test_case "max_reuse identical" `Quick
            test_max_reuse_identical;
        ]
        @ List.map
            (fun name ->
              Alcotest.test_case (name ^ " sweep") `Quick
                (test_suite_sweep_identical name))
            [ "RD-32"; "4mod5"; "XOR_5"; "BV_10"; "CC_10"; "System_9"; "Multiply_13" ] );
    ]
