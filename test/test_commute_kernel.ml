(* The commutable (QAOA) sweep kernel against its list-based reference
   (Commute_ref): the same steps — usage, depth, pairs and QASM-3
   text — on random problem graphs and on Table 1's QAOA graphs,
   and the same validity answer for every (tail, head) pair of every
   plan along the merge trajectories. *)

let same_steps (a : Caqr.Engine.step list) (b : Caqr.Engine.step list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Caqr.Engine.step) (y : Caqr.Engine.step) ->
         x.usage = y.usage && x.depth = y.depth && x.pairs = y.pairs
         && String.equal
              (Quantum.Qasm.to_string x.circuit)
              (Quantum.Qasm.to_string y.circuit))
       a b

(* Walks both merge trajectories in lockstep: at every plan, each
   (tail, head) pair gets the same [valid_merge] answer, and the next
   plans carry the same pairs. *)
let same_validity mode g =
  let rec walk p r =
    let tails =
      List.map
        (fun h -> List.hd (List.rev (Caqr.Commute.chain p h)))
        (Caqr.Commute.wires p)
    in
    List.for_all
      (fun src ->
        List.for_all
          (fun dst ->
            Caqr.Commute.valid_merge p ~src ~dst
            = Commute_ref.valid_merge r ~src ~dst)
          (Caqr.Commute.wires p))
      tails
    &&
    match (Caqr.Commute.reduce_once ~mode p, Commute_ref.reduce_once ~mode r) with
    | None, None -> true
    | Some p', Some r' ->
      Caqr.Commute.pairs p' = Commute_ref.pairs r' && walk p' r'
    | _ -> false
  in
  walk (Caqr.Commute.make g) (Commute_ref.make g)

let arb_problem lo hi =
  QCheck.make
    ~print:(Format.asprintf "%a" Galg.Graph.pp)
    QCheck.Gen.(
      int_range lo hi >>= fun n ->
      int_range 0 60 >>= fun pct ->
      int_bound 100_000 >|= fun seed ->
      Galg.Gen.random ~seed n ~density:(float_of_int pct /. 100.))

let prop_sweep name ~count ~mode lo hi =
  QCheck.Test.make ~name ~count (arb_problem lo hi) (fun g ->
      same_steps (Caqr.Commute.sweep ~mode g) (Commute_ref.sweep ~mode g)
      && same_validity mode g)

let prop_exact =
  prop_sweep "sweep = reference (2-30 vertices, Auto = Exact)" ~count:100
    ~mode:`Auto 2 30

let prop_heuristic =
  prop_sweep "sweep = reference (2-30 vertices, Heuristic)" ~count:100
    ~mode:`Heuristic 2 30

let prop_large =
  prop_sweep "sweep = reference (31-60 vertices, Auto = Heuristic)" ~count:100
    ~mode:`Auto 31 60

let test_table1 () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      match e.kind with
      | Benchmarks.Suite.Commutable g ->
        Alcotest.(check bool)
          (e.name ^ ": sweep = reference")
          true
          (same_steps (Caqr.Commute.sweep g) (Commute_ref.sweep g));
        Alcotest.(check bool)
          (e.name ^ ": validity = reference")
          true (same_validity `Auto g)
      | Benchmarks.Suite.Regular -> ())
    (Benchmarks.Suite.table1 ())

(* One emission per returned step: the QAOA25-0.3 sweep keeps 10 rows. *)
let test_emits_per_row () =
  let g =
    match (Benchmarks.Suite.find "QAOA25-0.3").kind with
    | Benchmarks.Suite.Commutable g -> g
    | Benchmarks.Suite.Regular -> Alcotest.fail "QAOA25-0.3 is commutable"
  in
  Obs.Metrics.reset ();
  let steps = Caqr.Commute.sweep g in
  Alcotest.(check int) "rows" 10 (List.length steps);
  Alcotest.(check int) "commute.emits" 10 (Obs.Metrics.count "commute.emits")

let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xc0; Hashtbl.hash name |])
    t

let () =
  Alcotest.run "commute_kernel"
    [
      ( "reference",
        List.map to_alcotest [ prop_exact; prop_heuristic; prop_large ] );
      ( "table1",
        [
          Alcotest.test_case "QAOA sweeps = reference" `Quick test_table1;
          Alcotest.test_case "one emit per row" `Quick test_emits_per_row;
        ] );
    ]
