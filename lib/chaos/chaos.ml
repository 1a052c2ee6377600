type outcome =
  | Ok_clean
  | Ok_degraded of int
  | Contained of Guard.Error.t
  | Verify_failed of string
  | Uncontained of string

type cell = {
  site : Guard.Inject.site;
  bench : string;
  fired : int;
  outcome : outcome;
}

(* A scratch corpus directory, wiped before every use so file names (and
   therefore the whole matrix rendering) are identical across runs. *)
let scratch_corpus_dir () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "caqr-chaos-corpus" in
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
  dir

let corpus_roundtrip circuit =
  let dir = scratch_corpus_dir () in
  let entry =
    Fuzz.Corpus.add ~dir ~seed:1 ~oracle:Fuzz.Oracle.Roundtrip
      ~note:"chaos probe" circuit
  in
  let loaded = Fuzz.Corpus.load dir in
  let same e = e.Fuzz.Corpus.file = entry.Fuzz.Corpus.file in
  if not (List.exists same loaded) then
    failwith "Chaos: corpus manifest lost the entry it just wrote";
  ignore (Fuzz.Corpus.read_circuit ~dir entry)

let width_of = function
  | Caqr.Pipeline.Regular c -> c.Quantum.Circuit.num_qubits
  | Caqr.Pipeline.Commutable g -> Galg.Graph.order g

(* A two-message loopback exchange over a socketpair, exercising the
   transport's read, frame-decode and write paths — and therefore the
   wire.* injection sites, each at least twice, so every seed-derived
   arming hit (1 or 2) lands inside one probe. *)
let wire_probe () =
  let a, b = Serve.Transport.pair () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Transport.close a;
      Serve.Transport.close b)
    (fun () ->
      Serve.Transport.send a [ "chaos-ping"; "chaos-pong" ];
      (match Serve.Transport.recv_batch ~timeout_s:2.0 ~max:4 b with
      | Serve.Transport.Msgs [ "chaos-ping"; "chaos-pong" ] -> ()
      | Serve.Transport.Msgs _ | Serve.Transport.Eof | Serve.Transport.Timeout
        ->
        failwith "Chaos: wire probe lost its messages");
      Serve.Transport.send b [ "chaos-ack" ];
      match Serve.Transport.recv_batch ~timeout_s:2.0 ~max:4 a with
      | Serve.Transport.Msgs [ "chaos-ack" ] -> ()
      | Serve.Transport.Msgs _ | Serve.Transport.Eof | Serve.Transport.Timeout
        ->
        failwith "Chaos: wire probe lost its ack")

(* One fault, one benchmark: drive the full surface — ladder-supervised
   compiles (both mappers), the applicability test, shot simulation, a
   QASM print/parse roundtrip, a corpus write and a wire exchange — all
   single-domain so the armed fault lands at a deterministic hit.
   Returns the reports so the caller can classify. *)
let workload input =
  let device = Hardware.Device.heavy_hex_for (width_of input) in
  let options =
    {
      Caqr.Pipeline.default with
      Caqr.Pipeline.fallback = true;
      verify = Some Verify.Static;
      jobs = 1;
    }
  in
  let reports =
    List.map
      (fun s -> Caqr.Pipeline.compile ~options device s input)
      [ Caqr.Pipeline.Sr; Caqr.Pipeline.Qs_min_depth ]
  in
  ignore (Caqr.Pipeline.beneficial device input);
  let r = List.hd reports in
  ignore (Sim.Executor.run ~jobs:1 ~seed:1 ~shots:64 r.Caqr.Pipeline.physical);
  (match
     Quantum.Qasm_parser.parse
       (Quantum.Qasm.to_string r.Caqr.Pipeline.physical)
   with
  | Ok _ -> ()
  | Error e -> raise (Guard.Error.Guard_error e));
  corpus_roundtrip r.Caqr.Pipeline.logical;
  wire_probe ();
  reports

let classify reports =
  let refuted =
    List.find_map
      (fun (r : Caqr.Pipeline.report) ->
        match r.Caqr.Pipeline.verification with
        | Some (Verify.Inequivalent cx) ->
          Some
            (Printf.sprintf "%s: %s"
               (Caqr.Pipeline.strategy_name r.Caqr.Pipeline.strategy)
               cx.Verify.Verdict.detail)
        | _ -> None)
      reports
  in
  match refuted with
  | Some why -> Verify_failed why
  | None -> (
    match
      List.fold_left
        (fun acc (r : Caqr.Pipeline.report) ->
          acc + List.length r.Caqr.Pipeline.degraded)
        0 reports
    with
    | 0 -> Ok_clean
    | n -> Ok_degraded n)

let run_cell ~seed ?deadline_ms site (bench, input) =
  (* Seed-driven arming: the k-th hit to fail is a pure function of the
     seed, so a rerun replays the exact same fault. *)
  Guard.Inject.arm ~at_hit:(1 + ((max 1 seed - 1) mod 2)) site.Guard.Inject.name;
  let finish outcome =
    let fired = Guard.Inject.fired () in
    Guard.Inject.disarm ();
    { site; bench; fired; outcome }
  in
  match
    Guard.Budget.scoped (Guard.Budget.make ?ms:deadline_ms ()) (fun () ->
        workload input)
  with
  | reports -> finish (classify reports)
  | exception (Guard.Error.Guard_error e | Guard.Error.Budget_exceeded e) ->
    finish (Contained e)
  | exception e -> finish (Uncontained (Printexc.to_string e))

let run ?(seed = 1) ?deadline_ms benches =
  List.concat_map
    (fun site ->
      List.map (fun bench -> run_cell ~seed ?deadline_ms site bench) benches)
    Guard.Inject.sites

let outcome_line = function
  | Ok_clean -> "ok"
  | Ok_degraded n -> Printf.sprintf "ok (degraded x%d)" n
  | Contained e -> "contained: " ^ Guard.Error.to_string e
  | Verify_failed why -> "VERIFY-FAIL: " ^ why
  | Uncontained why -> "UNCONTAINED: " ^ why

let pp_matrix ppf cells =
  List.iter
    (fun c ->
      Format.fprintf ppf "%-14s %-12s fired=%d  %s@."
        c.site.Guard.Inject.name c.bench c.fired (outcome_line c.outcome))
    cells

let all_contained =
  List.for_all (fun c ->
      match c.outcome with
      | Ok_clean | Ok_degraded _ | Contained _ -> true
      | Verify_failed _ | Uncontained _ -> false)

let any_verify_failed =
  List.exists (fun c ->
      match c.outcome with Verify_failed _ -> true | _ -> false)

let sites_fired cells =
  List.sort_uniq compare
    (List.filter_map
       (fun c -> if c.fired > 0 then Some c.site.Guard.Inject.name else None)
       cells)
