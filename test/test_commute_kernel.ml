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

let qaoa name =
  match (Benchmarks.Suite.find name).kind with
  | Benchmarks.Suite.Commutable g -> g
  | Benchmarks.Suite.Regular -> Alcotest.fail (name ^ " is commutable")

(* One emission per returned step: the QAOA25-0.3 sweep keeps 10 rows. *)
let test_emits_per_row () =
  let g = qaoa "QAOA25-0.3" in
  Obs.Metrics.reset ();
  let steps = Caqr.Commute.sweep g in
  Alcotest.(check int) "rows" 10 (List.length steps);
  Alcotest.(check int) "commute.emits" 10 (Obs.Metrics.count "commute.emits")

(* Counted work of one sweep per Table-1 QAOA graph: candidate schedules
   run ([commute.schedule.runs]), candidates pruned by the chain-load
   bound ([commute.schedule.pruned]) and circuits emitted
   ([commute.emits]). Ties in the matchings decide rounds and rounds
   decide which pair merges, so a kernel change that moves a mate moves
   these. *)
let schedule_pins =
  [
    ("QAOA5-0.3", (5, 16, 4));
    ("QAOA10-0.3", (7, 115, 7));
    ("QAOA15-0.3", (20, 225, 8));
    ("QAOA20-0.3", (25, 315, 10));
    ("QAOA25-0.3", (23, 387, 10));
  ]

let test_schedule_pins () =
  List.iter
    (fun (name, want) ->
      Obs.Metrics.reset ();
      ignore (Caqr.Commute.sweep (qaoa name));
      let got =
        ( Obs.Metrics.count "commute.schedule.runs",
          Obs.Metrics.count "commute.schedule.pruned",
          Obs.Metrics.count "commute.emits" )
      in
      Alcotest.(check (triple int int int))
        (name ^ ": runs, pruned, emits")
        want got)
    schedule_pins

(* Augmenting-path searches per sweep, each one [match.augment]
   injection hit: the fault fires when armed at the last search and not
   one past it. *)
let augment_pins = [ ("QAOA5-0.3", 12); ("QAOA25-0.3", 2507) ]

let fires name at_hit =
  Guard.Inject.arm ~at_hit "match.augment";
  Fun.protect ~finally:Guard.Inject.disarm @@ fun () ->
  match Caqr.Commute.sweep (qaoa name) with
  | _ -> false
  | exception Guard.Error.Guard_error _ -> true

let test_augment_pins () =
  List.iter
    (fun (name, searches) ->
      Alcotest.(check bool) (name ^ ": fires at the last search") true
        (fires name searches);
      Alcotest.(check bool) (name ^ ": no search past it") false
        (fires name (searches + 1)))
    augment_pins

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
          Alcotest.test_case "schedule work pins" `Quick test_schedule_pins;
          Alcotest.test_case "match.augment searches per sweep" `Quick
            test_augment_pins;
        ] );
    ]
