(* Shared checks that a flat pair engine returns exactly what its frozen
   list-based reference returns: the circuit's QASM bytes, the pair
   list, width, reuse count and quality, and every counter the run
   bumps. Used by test_cone_caqr and test_gidnet_caqr. *)

let qasm (a : Caqr.Engine.artifact) = Quantum.Qasm.to_string a.Caqr.Engine.circuit

(* The artifact plus the counters of one run from a reset registry. *)
let counted run c =
  Obs.Metrics.reset ();
  let a = run c in
  (a, (Obs.Metrics.snapshot ()).Obs.Metrics.counters)

let show_pairs = function
  | None -> "none"
  | Some ps ->
    String.concat " "
      (List.map
         (fun (p : Caqr.Reuse.pair) ->
           Printf.sprintf "%d>%d" p.Caqr.Reuse.src p.Caqr.Reuse.dst)
         ps)

let show_counters cs =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)

(* [None] when the two runs agree, else what differs. *)
let diff ~reference ~run c =
  let (r : Caqr.Engine.artifact), rc = counted reference c in
  let (a : Caqr.Engine.artifact), ac = counted run c in
  let mismatch what x y = Some (Printf.sprintf "%s: reference %s, flat %s" what x y) in
  if r.pairs <> a.pairs then mismatch "pairs" (show_pairs r.pairs) (show_pairs a.pairs)
  else if r.width <> a.width then
    mismatch "width" (string_of_int r.width) (string_of_int a.width)
  else if r.reuses <> a.reuses then
    mismatch "reuses" (string_of_int r.reuses) (string_of_int a.reuses)
  else if r.quality <> a.quality then
    mismatch "quality"
      (Caqr.Quality.to_string r.quality)
      (Caqr.Quality.to_string a.quality)
  else if r.routed <> a.routed || r.slack <> a.slack then
    Some "routed/slack differ"
  else if qasm r <> qasm a then Some "circuit bytes differ"
  else if rc <> ac then mismatch "counters" (show_counters rc) (show_counters ac)
  else None

let agree ~reference ~run c =
  match diff ~reference ~run c with
  | None -> true
  | Some why ->
    Printf.printf "engine differs from its reference: %s\n%!" why;
    false

(* Every fixed input the references are compared on: each Table-1
   circuit, each QAOA row's emitted circuit, and the large corpus. *)
let corpus () =
  List.concat_map
    (fun (e : Benchmarks.Suite.entry) ->
      let c = e.Benchmarks.Suite.circuit in
      match e.Benchmarks.Suite.kind with
      | Benchmarks.Suite.Regular -> [ (e.Benchmarks.Suite.name, c) ]
      | Benchmarks.Suite.Commutable g ->
        [
          (e.Benchmarks.Suite.name, c);
          ( e.Benchmarks.Suite.name ^ " emitted",
            Caqr.Commute.emit (Caqr.Commute.make g) );
        ])
    (Benchmarks.Suite.table1 ())
  @ List.map
      (fun (g : Benchmarks.Large.gen) -> (g.Benchmarks.Large.name, g.build ()))
      (Benchmarks.Large.generators ())

let check_corpus ~reference ~run () =
  List.iter
    (fun (name, c) ->
      match diff ~reference ~run c with
      | None -> ()
      | Some why -> Alcotest.failf "%s: %s" name why)
    (corpus ())

(* Fuzz circuits with barriers, shared clbits, mid-circuit measurement
   and conditional X, wider than the default generator. *)
let fuzz_cfg =
  { Fuzz.Gen.default with Fuzz.Gen.max_qubits = 12; max_gates = 80 }

let prop_fuzz ~name ~reference ~run =
  QCheck.Test.make ~name ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      agree ~reference ~run (Fuzz.Gen.circuit fuzz_cfg (Exec.Prng.make seed)))

(* The large corpus's random dynamic circuits at 4-48 qubits. *)
let prop_rand_dyn ~name ~reference ~run =
  QCheck.Test.make ~name ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 4 48))
    (fun (seed, n) ->
      agree ~reference ~run (Benchmarks.Large.rand_dyn ~seed n))

(* A budget that has already run out trips the first poll: both engines
   must report the same anytime counters. *)
let check_tripped ~reference ~run () =
  let tripped f c =
    let budget = Guard.Budget.make ~ms:0 () in
    Unix.sleepf 0.002;
    Guard.Budget.scoped budget (fun () -> f c)
  in
  List.iter
    (fun name ->
      let c = (Benchmarks.Suite.find name).Benchmarks.Suite.circuit in
      let r = tripped reference c and a = tripped run c in
      Alcotest.(check string)
        (name ^ ": anytime counters")
        (Caqr.Quality.to_string r.Caqr.Engine.quality)
        (Caqr.Quality.to_string a.Caqr.Engine.quality);
      Alcotest.(check bool)
        (name ^ ": tripped")
        false
        (Caqr.Quality.is_exact a.Caqr.Engine.quality);
      Alcotest.(check string) (name ^ ": partial circuit") (qasm r) (qasm a))
    [ "Multiply_13"; "cuccaro-64" ]

(* A budget that runs out mid-run, wherever the host's speed puts the
   trip: the engine commits link by link, so its partial pairs are a
   prefix of the exact run's, and [steps_done] counts them. GidNET's
   [frontier_left] is the valid-pair count of the round the trip cut,
   which a cursor moved along the prefix counts again. If the run ends
   before the deadline it must equal the exact run. *)
let check_midrun ~run ~frontier () =
  let c = (Benchmarks.Suite.find "cuccaro-256").Benchmarks.Suite.circuit in
  let exact = Option.get (run c).Caqr.Engine.pairs in
  List.iter
    (fun ms ->
      let a = Guard.Budget.scoped (Guard.Budget.make ~ms ()) (fun () -> run c) in
      let pairs = Option.get a.Caqr.Engine.pairs in
      let rec prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && prefix xs ys
        | _ :: _, [] -> false
      in
      Alcotest.(check bool) (Printf.sprintf "%d ms: a prefix" ms) true (prefix pairs exact);
      match a.Caqr.Engine.quality with
      | Caqr.Quality.Exact ->
        Alcotest.(check int) (Printf.sprintf "%d ms: complete" ms)
          (List.length exact) (List.length pairs)
      | Caqr.Quality.Anytime { steps_done; frontier_left } ->
        Alcotest.(check int) (Printf.sprintf "%d ms: steps" ms)
          (List.length pairs) steps_done;
        Option.iter
          (fun f ->
            Alcotest.(check int) (Printf.sprintf "%d ms: frontier" ms)
              (f c pairs) frontier_left)
          frontier)
    [ 1; 5; 20; 40 ]

(* GidNET's frontier after committing [pairs]: the next round's edges. *)
let gidnet_frontier c pairs =
  let a = Caqr.Reuse.analyze c in
  List.iter (Caqr.Reuse.commit a) pairs;
  List.length (Caqr.Reuse.valid_pairs a)
