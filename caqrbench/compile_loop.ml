(* Closed-loop compile workloads: one caller, jobs = 1, compiling a
   fixed set of (circuit, strategy) cells in a seeded order, pass after
   pass. *)

open Util

type cell = {
  label : string;
  group : string;  (** breakdown row of the traced report *)
  strategy : Caqr.Pipeline.strategy;
  input : Caqr.Pipeline.input;
  circuit : Quantum.Circuit.t;
  device : Hardware.Device.t;
  options : Caqr.Pipeline.options;
  golden : string option;  (** expected QASM-3, when a golden file exists *)
}

let input_of (e : Benchmarks.Suite.entry) =
  match e.Benchmarks.Suite.kind with
  | Benchmarks.Suite.Regular -> Caqr.Pipeline.Regular e.Benchmarks.Suite.circuit
  | Benchmarks.Suite.Commutable g -> Caqr.Pipeline.Commutable g

let make_cell ?golden ~group ~options (e : Benchmarks.Suite.entry)
    (sname, strategy) =
  let circuit = e.Benchmarks.Suite.circuit in
  {
    label = e.Benchmarks.Suite.name ^ "/" ^ sname;
    group;
    strategy;
    input = input_of e;
    circuit;
    device = Hardware.Device.heavy_hex_for circuit.Quantum.Circuit.num_qubits;
    options;
    golden;
  }

(* The golden files render a cell at seed 1 without verification; the
   static verifier only reads the artifact, so the same bytes apply. *)
let golden_file ~golden_dir (e : Benchmarks.Suite.entry) sname =
  match e.Benchmarks.Suite.kind with
  | Benchmarks.Suite.Commutable _ -> None
  | Benchmarks.Suite.Regular ->
    let path =
      Filename.concat golden_dir
        (Printf.sprintf "%s.%s.qasm" e.Benchmarks.Suite.name sname)
    in
    if Sys.file_exists path then Some (read_file path) else None

(* Process-level lazy state only: one tiny compile outside the timing. *)
let warm () =
  let e = Benchmarks.Suite.find "XOR_5" in
  ignore
    (Caqr.Pipeline.compile
       (Hardware.Device.heavy_hex_for 5)
       Caqr.Pipeline.Qs_max_reuse (input_of e))

let table1 ~golden_dir () =
  if not (Sys.file_exists golden_dir && Sys.is_directory golden_dir) then
    failwith ("golden directory not found: " ^ golden_dir);
  let options =
    { Caqr.Pipeline.default with verify = Some Verify.Static; seed = 1 }
  in
  let cells =
    List.concat_map
      (fun (e : Benchmarks.Suite.entry) ->
        List.map
          (fun ((sname, _) as s) ->
            make_cell
              ?golden:(golden_file ~golden_dir e sname)
              ~group:sname ~options e s)
          Caqr.Pipeline.all_strategies)
      (Benchmarks.Suite.table1 ())
  in
  warm ();
  Array.of_list cells

let large_names =
  [ "qaoa-powerlaw-100"; "cuccaro-64"; "qft-layered-100"; "rand-dyn-100" ]

let large ~small () =
  let names = if small then [ "cuccaro-64" ] else large_names in
  let options = { Caqr.Pipeline.default with seed = 1 } in
  let cells =
    List.map
      (fun name ->
        make_cell ~group:name ~options
          (Benchmarks.Suite.find name)
          ("qs-max-reuse", Caqr.Pipeline.Qs_max_reuse))
      names
  in
  warm ();
  Array.of_list cells

(* ---- correctness, checked as each compile returns ---- *)

let compile_cell c =
  match
    Caqr.Pipeline.compile ~options:c.options c.device c.strategy c.input
  with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let qasm_of (r : Caqr.Pipeline.report) =
  Quantum.Qasm.to_string
    (fst (Quantum.Circuit.compact_qubits r.Caqr.Pipeline.physical))

let structural_ok device (r : Caqr.Pipeline.report) =
  not
    (Verify.Verdict.is_inequivalent
       (Verify.Structural.check_artifact device ~logical:r.Caqr.Pipeline.logical
          ~physical:r.Caqr.Pipeline.physical))

let verifier_ok (r : Caqr.Pipeline.report) =
  match r.Caqr.Pipeline.verification with
  | Some v -> not (Verify.Verdict.is_inequivalent v)
  | None -> true

(* Only each cell's first artifact is kept (its QASM-3, the report and
   its structural verdict), so checking retains no per-op heap. *)
type checker = {
  firsts : (string * Caqr.Pipeline.report * bool) option array;
  golden_ok : bool array;
  reasons : (string, int) Hashtbl.t;
  mutable failed : int;
}

let checker n =
  {
    firsts = Array.make n None;
    golden_ok = Array.make n false;
    reasons = Hashtbl.create 8;
    failed = 0;
  }

let fail chk why =
  chk.failed <- chk.failed + 1;
  Hashtbl.replace chk.reasons why
    (1 + Option.value ~default:0 (Hashtbl.find_opt chk.reasons why))

(* Every op must be exact, pass the verifier and the static structural
   certificate, reproduce its cell's first artifact byte for byte, and
   match the cell's golden file when there is one. *)
let check_op chk i c = function
  | Error e -> fail chk (c.label ^ ": raised " ^ e)
  | Ok r ->
    let q = qasm_of r in
    let q0, _, structural =
      match chk.firsts.(i) with
      | Some first -> first
      | None ->
        let first = (q, r, structural_ok c.device r) in
        chk.firsts.(i) <- Some first;
        first
    in
    if not (Caqr.Quality.is_exact r.Caqr.Pipeline.quality) then
      fail chk (c.label ^ ": not exact")
    else if not (verifier_ok r) then fail chk (c.label ^ ": verifier inequivalent")
    else if not structural then fail chk (c.label ^ ": structural check failed")
    else if q <> q0 then fail chk (c.label ^ ": artifact differs between runs")
    else (
      match c.golden with
      | Some g when g <> q -> fail chk (c.label ^ ": golden mismatch")
      | Some _ -> chk.golden_ok.(i) <- true
      | None -> ())

let first_reports chk = Array.map (Option.map (fun (_, r, _) -> r)) chk.firsts

(* ---- timed phase ---- *)

type op = {
  cell : int;
  wall : float;  (** seconds *)
  delta : obs option;  (** traced runs only *)
}

type phase = {
  ops : op list;
  busy : float;  (** seconds inside Pipeline.compile *)
  elapsed : float;  (** seconds of the whole phase, checks included *)
  obs : obs;
  gc : gc;  (** summed over the compile calls only *)
  rss_mb : float;  (** peak resident set at the end of the phase *)
  checked : checker;
}

let run_phase ~passes ~traced ~rng cells =
  let chk = checker (Array.length cells) in
  let ops = ref [] and gc = ref (gc_diff (gc_now ()) (gc_now ())) in
  let o0 = obs_now () in
  let t0 = now () in
  for _ = 1 to passes do
    Array.iter
      (fun i ->
        let before = if traced then Some (obs_now ()) else None in
        let g0 = gc_now () in
        let outcome, wall = time (fun () -> compile_cell cells.(i)) in
        gc := gc_add !gc (gc_diff g0 (gc_now ()));
        let delta = Option.map (fun b -> obs_diff b (obs_now ())) before in
        check_op chk i cells.(i) outcome;
        ops := { cell = i; wall; delta } :: !ops)
      (permutation rng (Array.length cells))
  done;
  let elapsed = now () -. t0 in
  let ops = List.rev !ops in
  {
    ops;
    busy = sum_f (List.map (fun op -> op.wall) ops);
    elapsed;
    obs = obs_diff o0 (obs_now ());
    gc = !gc;
    rss_mb = peak_rss_mb ();
    checked = chk;
  }

(* Output quality summed over distinct artifacts. *)
let out_totals (reports : Caqr.Pipeline.report list) =
  let sum f = float_of_int (sum_i (List.map f reports)) in
  [
    metric "out_width_total" "qubits"
      (sum (fun r -> Caqr.Reuse.qubit_usage r.Caqr.Pipeline.logical));
    metric "out_swaps_total" "swaps"
      (sum (fun r -> r.Caqr.Pipeline.stats.Transpiler.Transpile.swaps));
    metric "out_duration_dt_total" "dt"
      (sum (fun r -> r.Caqr.Pipeline.stats.Transpiler.Transpile.duration_dt));
  ]

(* ---- the workload ---- *)

type outcome = {
  e2e : metric list;
  layers : metric list;
  notes : string list;
  attempted : int;
  failed : int;
}

let probe_set cells chk =
  let cs = Array.to_list cells in
  let inputs = distinct_by (fun c -> Quantum.Circuit.digest c.circuit) cs in
  Layers.probe_set
    ~inputs:(List.map (fun c -> c.input) inputs)
    ~artifacts:
      (List.filter_map
         (Option.map (fun (r : Caqr.Pipeline.report) -> r.Caqr.Pipeline.physical))
         (Array.to_list (first_reports chk)))
    ~texts:(List.map (fun c -> Quantum.Qasm.to_string c.circuit) inputs)
    ~circuits:(List.map (fun c -> c.circuit) cs)

let traced_deltas cells phase =
  List.filter_map
    (fun op -> Option.map (fun d -> (cells.(op.cell).strategy, d)) op.delta)
    phase.ops

(* Per-group split of the traced phase (strategy rows on the Table-1
   mix, circuit rows on the large corpus). *)
let breakdown cells phase =
  let groups = distinct_by Fun.id (Array.to_list (Array.map (fun c -> c.group) cells)) in
  let row g =
    let ops = List.filter (fun op -> cells.(op.cell).group = g) phase.ops in
    let deltas = traced_deltas cells { phase with ops } in
    let tot k = sum_f (List.map (fun (_, d) -> timer_ms d k) deltas) in
    let n = List.length ops in
    let wall = 1000. *. sum_f (List.map (fun op -> op.wall) ops) in
    Printf.sprintf
      "  %-18s ops=%-4d compile=%9.3f ms  search_self=%9.3f  analyze=%8.3f  \
       route=%7.3f  verify=%7.3f  sr=%7.3f  cone=%6.3f  gidnet=%6.3f  (ms/op)"
      g n (per n wall)
      (per n (sum_f (List.map (fun (s, d) -> Layers.search_self_ms s d) deltas)))
      (per n (tot "time.analyze"))
      (per n (tot "time.route"))
      (per n (tot "time.verify"))
      (per n (tot "time.sr"))
      (per n (tot "time.cone"))
      (per n (tot "time.gidnet"))
  in
  "traced split per group:" :: List.map row groups

(* The work of a run is fixed by --seconds, not by the clock: whole
   passes over the cells, as many as take [seconds] at [pass_s] seconds
   a pass (measured on a 2-core host). A faster compiler then finishes
   the same work sooner, and each cell keeps its number of samples. *)
let run ~cells:build ~pass_s ~seed ~seconds ~trace =
  let cells, setups = repeated_setup ~dispose:ignore build in
  let passes = max 1 (int_of_float (Float.round (seconds /. pass_s))) in
  let rng = Exec.Prng.make seed in
  let measure ~traced stream =
    run_phase ~passes ~traced ~rng:(Exec.Prng.split rng stream) cells
  in
  (* A traced run compares an untraced and a traced phase; one untimed
     pass first lets both start from a grown heap. *)
  if trace then
    ignore (run_phase ~passes:1 ~traced:false ~rng:(Exec.Prng.split rng 2) cells);
  let untraced = measure ~traced:false 0 in
  let chk = untraced.checked in
  let ops = List.length untraced.ops in
  let walls = List.map (fun op -> op.wall) untraced.ops in
  let n_cells = Array.length cells in
  let pass_walls =
    List.init passes (fun p -> sum_f (List.filteri (fun i _ -> i / n_cells = p) walls))
  in
  (* On a shared host, neighbours slow whole stretches of a run by up to
     80% (a fixed CPU loop read 0.25-0.48 s from second to second), so a
     cell's latency is its fastest compile over the run's passes. Over
     six seeds of table1-engines these figures spread by 1-3% (IQR over
     median), where the same runs' per-op figures spread by 10-23%. *)
  let best = Array.make n_cells infinity in
  List.iter (fun op -> best.(op.cell) <- Float.min best.(op.cell) op.wall) untraced.ops;
  let bests = Array.to_list best in
  let t = tail bests in
  let e2e =
    [
      metric "ops_per_s" "1/s" (float_of_int n_cells /. sum_f bests);
      metric "latency_p50_ms" "ms" (1000. *. median bests);
      metric "latency_tail_ms" "ms" (1000. *. t.value);
      metric "success_ratio" "ratio" (ratio (ops - chk.failed) ops);
      metric "setup_s" "s" (median setups);
      metric "alloc_mb_per_op" "MB" (per ops (allocated_mb untraced.gc));
    ]
    @ out_totals (List.filter_map Fun.id (Array.to_list (first_reports chk)))
  in
  let notes =
    [
      Printf.sprintf "cells=%d passes=%d ops=%d compile time=%.3f s"
        (Array.length cells) passes ops untraced.busy;
      setup_note setups;
      "timing figures are over each cell's fastest compile of the run; \
       latency_tail_ms is " ^ tail_label t;
      Printf.sprintf "every op: p50 %.3f ms, p99 %.3f ms, %.3f ops/s"
        (1000. *. median walls) (1000. *. percentile walls 99.)
        (float_of_int ops /. untraced.busy);
      "compile s per pass: "
      ^ String.concat " " (List.map (Printf.sprintf "%.3f") pass_walls);
      Printf.sprintf "goldens matched: %d cells"
        (Array.fold_left (fun k b -> if b then k + 1 else k) 0 chk.golden_ok);
      Printf.sprintf "error_rate: %d failed / %d attempted" chk.failed ops;
    ]
    @ Hashtbl.fold
        (fun why k acc -> Printf.sprintf "FAILED x%d: %s" k why :: acc)
        chk.reasons []
  in
  let layers, layer_notes, failed_traced, traced_ops =
    if not trace then ([], [], 0, 0)
    else begin
      let traced = measure ~traced:true 1 in
      let twalls = List.map (fun op -> op.wall) traced.ops in
      let compile_m, compile_b =
        Layers.compile ~walls:twalls (traced_deltas cells traced)
      in
      let probe_m, probe_b = Layers.probes (probe_set cells chk) in
      let traced_ops = List.length traced.ops in
      let per_op_s phase =
        phase.elapsed /. float_of_int (List.length phase.ops)
      in
      ( compile_m @ probe_m
        @ Layers.activity ~ops:traced_ops traced.obs traced.gc
        @ Layers.absent Layers.serve_names
        @ [
            Layers.overhead ~untraced:(per_op_s untraced) ~traced:(per_op_s traced);
            metric "peak_rss_mb" "MB" traced.rss_mb;
          ],
        compile_b @ probe_b
        @ [
            "serve.* and loadgen.* are not exercised by this workload (0)";
            Printf.sprintf
              "tracing overhead: %.4f s/op untraced vs %.4f s/op traced"
              (per_op_s untraced) (per_op_s traced);
          ]
        @ breakdown cells traced,
        traced.checked.failed,
        traced_ops )
    end
  in
  {
    e2e;
    layers;
    notes = notes @ layer_notes;
    attempted = ops + traced_ops;
    failed = chk.failed + failed_traced;
  }
