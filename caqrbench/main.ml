(* CaQR benchmark: three workloads against the public library and
   daemon APIs. Prints a human-readable report, then, as the last line
   of standard output, one JSON object with the metrics.

     main.exe --workload table1-engines|large-qs|serve-mix --seed N
              --seconds S --trace 0|1

   --trace 0 reports the end-to-end metrics; --trace 1 runs the timed
   phase untraced and then traced, and reports the per-layer metrics
   plus the tracing overhead. Exits 1 when any output fails its check,
   2 when the benchmark cannot run at all. *)

let workloads = [ "table1-engines"; "large-qs"; "serve-mix" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let golden_dir = ref (Filename.concat "test" "golden") in
  let small = ref false in
  let nproc = ref "" and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N seed of every random choice");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--golden-dir", Arg.Set_string golden_dir, "DIR golden QASM-3 files");
      ("--small", Arg.Set small, " one large circuit only (self-check)");
      ("--nproc", Arg.Set_string nproc, "N processors available (recorded)");
      ("--commit", Arg.Set_string commit, "SHA source revision (recorded)");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "; " ^ usage);
    exit 2
  end;
  let trace = !trace = 1 in
  let domains = Domain.recommended_domain_count () in
  let nproc = if !nproc = "" then string_of_int domains else !nproc in
  let generator_threads, conns =
    if !workload = "serve-mix" then (1, Serve_mix.connections) else (1, 0)
  in
  Printf.printf "# caqrbench workload=%s seed=%d seconds=%g trace=%d\n"
    !workload !seed !seconds (Bool.to_int trace);
  Printf.printf
    "# host: nproc=%s recommended_domain_count=%d ocaml=%s commit=%s\n" nproc
    domains Sys.ocaml_version !commit;
  if !workload = "serve-mix" then
    Printf.printf "# config: %s\n" (Serve_mix.config_line ());
  (match int_of_string_opt nproc with
   | Some p when generator_threads > p || conns > p ->
     Printf.printf
       "# FLAG: generator threads (%d) or connections (%d) exceed nproc (%d)\n"
       generator_threads conns p
   | _ -> ());
  flush stdout;
  let outcome =
    try
      match !workload with
      | "table1-engines" ->
        Compile_loop.run
          ~cells:(Compile_loop.table1 ~golden_dir:!golden_dir)
          ~pass_s:1.5 ~seed:!seed ~seconds:!seconds ~trace
      | "large-qs" ->
        Compile_loop.run
          ~cells:(Compile_loop.large ~small:!small)
          ~pass_s:3.3 ~seed:!seed ~seconds:!seconds ~trace
      | _ ->
        Serve_mix.run ~seed:!seed ~seconds:!seconds ~trace
    with e ->
      prerr_endline ("caqrbench: cannot run: " ^ Printexc.to_string e);
      exit 2
  in
  List.iter (Printf.printf "# %s\n") outcome.Compile_loop.notes;
  Util.print_table "end-to-end:" outcome.Compile_loop.e2e;
  if trace then Util.print_table "per-layer:" outcome.Compile_loop.layers;
  let failed = outcome.Compile_loop.failed in
  print_endline
    (Util.result_line ~correct:(failed = 0)
       ~attempted:outcome.Compile_loop.attempted ~failed
       (if trace then outcome.Compile_loop.layers else outcome.Compile_loop.e2e));
  exit (if failed = 0 then 0 else 1)
