(* Golden-file regression suite: every regular benchmark, compiled at a
   fixed seed with each pinned strategy, must emit QASM-3 byte-identical
   to the checked-in file under test/golden/.

   A mismatch prints a unified diff (and appends it to golden.diff next
   to the test binary, which CI uploads). Regenerate intentionally with

     GOLDEN_PROMOTE=1 dune runtest

   which rewrites the files in the source tree and passes. *)

let promote = Sys.getenv_opt "GOLDEN_PROMOTE" = Some "1"

(* Anchor every path to the binary's own directory
   (_build/default/test), not the cwd — dune runtest and dune exec start
   from different places. The build copy of golden/ sits next to the
   binary via (deps (source_tree golden)); promotion must write through
   to the source tree, so strip the "/_build/default" infix. *)
let test_dir = Filename.dirname Sys.executable_name

let find_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let source_test_dir =
  let marker = Filename.concat (Filename.concat "" "_build") "default" in
  (* "/_build/default" *)
  match find_sub ~sub:marker test_dir with
  | Some i ->
    String.sub test_dir 0 i
    ^ String.sub test_dir
        (i + String.length marker)
        (String.length test_dir - i - String.length marker)
  | None -> test_dir

let golden_dir = Filename.concat test_dir "golden"
let diff_log = Filename.concat test_dir "golden.diff"

let strategies =
  [
    ("baseline", Caqr.Pipeline.Baseline);
    ("qs-max-reuse", Caqr.Pipeline.Qs_max_reuse);
    ("sr", Caqr.Pipeline.Sr);
    ("cone", Caqr.Pipeline.Cone);
    ("gidnet", Caqr.Pipeline.Gidnet);
  ]

let compiled_qasm (e : Benchmarks.Suite.entry) strategy =
  let device =
    Hardware.Device.heavy_hex_for
      e.Benchmarks.Suite.circuit.Quantum.Circuit.num_qubits
  in
  let options = { Caqr.Pipeline.default with seed = 1 } in
  let r =
    Caqr.Pipeline.compile ~options device strategy
      (Caqr.Pipeline.Regular e.Benchmarks.Suite.circuit)
  in
  Quantum.Qasm.to_string
    (fst (Quantum.Circuit.compact_qubits r.Caqr.Pipeline.physical))

(* ---- unified diff (single hunk over the whole file) ---- *)

let lines s = Array.of_list (String.split_on_char '\n' s)

let unified_diff ~golden ~actual =
  let a = lines golden and b = lines actual in
  let n = Array.length a and m = Array.length b in
  (* LCS length table; the files are a few hundred lines at most. *)
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if a.(i) = b.(j) then 1 + lcs.(i + 1).(j + 1)
         else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "--- golden\n+++ actual\n@@ -1,%d +1,%d @@\n" n m);
  let rec walk i j =
    if i < n && j < m && a.(i) = b.(j) then begin
      Buffer.add_string buf (" " ^ a.(i) ^ "\n");
      walk (i + 1) (j + 1)
    end
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then begin
      Buffer.add_string buf ("+" ^ b.(j) ^ "\n");
      walk i (j + 1)
    end
    else if i < n then begin
      Buffer.add_string buf ("-" ^ a.(i) ^ "\n");
      walk (i + 1) j
    end
  in
  walk 0 0;
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let log_diff name diff =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 diff_log
  in
  output_string oc (Printf.sprintf "=== %s ===\n%s" name diff);
  close_out oc

(* [actual] against golden/[file], or written there when promoting. *)
let check_file file actual =
  if promote then begin
    let dir = Filename.concat source_test_dir "golden" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    write_file (Filename.concat dir file) actual
  end
  else begin
    let path = Filename.concat golden_dir file in
    if not (Sys.file_exists path) then
      Alcotest.fail
        (Printf.sprintf
           "missing golden file %s — run GOLDEN_PROMOTE=1 dune runtest to \
            create it"
           path)
    else begin
      let golden = read_file path in
      if golden <> actual then begin
        let diff = unified_diff ~golden ~actual in
        log_diff file diff;
        Printf.printf "golden mismatch for %s:\n%s%!" file diff;
        Alcotest.fail
          (Printf.sprintf
             "%s drifted from its golden baseline (unified diff above; \
              GOLDEN_PROMOTE=1 to accept)"
             file)
      end
    end
  end

let check_golden (e : Benchmarks.Suite.entry) (sname, strategy) () =
  check_file
    (Printf.sprintf "%s.%s.qasm" e.Benchmarks.Suite.name sname)
    (compiled_qasm e strategy)

(* Large-corpus slice: the baseline pass (no reuse search) as QASM files,
   pinning the generators plus the routing layer byte-for-byte; every
   strategy's large artifacts are pinned by digest below. *)
let large_slice = [ "qaoa-powerlaw-100"; "cuccaro-64" ]
let large_strategies = [ ("baseline", Caqr.Pipeline.Baseline) ]

(* The whole large corpus under QS, cone, GidNET, SR and the baseline, as
   one digest table (test/golden/large.digests): width, depth and SWAPs
   after routing, and the digests of the logical and physical circuits.
   A QASM file per artifact would be megabytes; a digest still pins the
   artifact byte for byte. Compiles run with no deadline, so every engine
   reaches its deterministic completion. *)
let large_digest_strategies =
  [
    ("qs-max-reuse", Caqr.Pipeline.Qs_max_reuse);
    ("cone", Caqr.Pipeline.Cone);
    ("gidnet", Caqr.Pipeline.Gidnet);
    ("sr", Caqr.Pipeline.Sr);
    ("baseline", Caqr.Pipeline.Baseline);
  ]

let large_digest_line name (sname, strategy) =
  let e = Benchmarks.Suite.find name in
  let c = e.Benchmarks.Suite.circuit in
  let device = Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits in
  let r =
    Caqr.Pipeline.compile
      ~options:{ Caqr.Pipeline.default with seed = 1 }
      device strategy (Caqr.Pipeline.Regular c)
  in
  let st = r.Caqr.Pipeline.stats in
  Printf.sprintf "%s %s width=%d depth=%d swaps=%d logical=%s physical=%s"
    name sname st.Transpiler.Transpile.qubits_used st.Transpiler.Transpile.depth
    st.Transpiler.Transpile.swaps
    (Quantum.Circuit.digest r.Caqr.Pipeline.logical)
    (Quantum.Circuit.digest r.Caqr.Pipeline.physical)

let check_large_digests () =
  check_file "large.digests"
    (String.concat ""
       (List.concat_map
          (fun (g : Benchmarks.Large.gen) ->
            List.map
              (fun s -> large_digest_line g.Benchmarks.Large.name s ^ "\n")
              large_digest_strategies)
          (Benchmarks.Large.generators ())))

let () =
  let cases =
    List.concat_map
      (fun (e : Benchmarks.Suite.entry) ->
        List.map
          (fun s ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s" e.Benchmarks.Suite.name (fst s))
              `Quick (check_golden e s))
          strategies)
      (Benchmarks.Suite.regular ())
  in
  let large_cases =
    List.concat_map
      (fun name ->
        let e = Benchmarks.Suite.find name in
        List.map
          (fun s ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s" name (fst s))
              `Quick (check_golden e s))
          large_strategies)
      large_slice
  in
  Alcotest.run "golden"
    [
      ("compiled-qasm", cases);
      ("compiled-qasm-large", large_cases);
      ( "large-digests",
        [ Alcotest.test_case "nine circuits x five strategies" `Quick
            check_large_digests ] );
    ]
