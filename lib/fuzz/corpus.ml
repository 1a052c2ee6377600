type entry = { file : string; seed : int; oracle : Oracle.t; note : string }

let default_dir = Filename.concat "fuzz" "corpus"
let manifest_name = "manifest.tsv"

let load dir =
  let path = Filename.concat dir manifest_name in
  if not (Sys.file_exists path) then []
  else
    Guard.File.read path |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "" && l.[0] <> '#')
    |> List.map (fun line ->
           match String.split_on_char '\t' line with
           | file :: seed :: oracle :: note ->
             let seed =
               match int_of_string_opt seed with
               | Some s -> s
               | None -> failwith ("Corpus.load: bad seed in line: " ^ line)
             in
             let oracle =
               match Oracle.of_name oracle with
               | Ok o -> o
               | Error msg -> failwith ("Corpus.load: " ^ msg)
             in
             { file; seed; oracle; note = String.concat "\t" note }
           | _ -> failwith ("Corpus.load: malformed manifest line: " ^ line))

(* TSV field: no tabs or newlines allowed inside. *)
let clean s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

(* ---- crash-safe writes ----

   Every file lands via write-to-temp + atomic [Sys.rename] in the same
   directory: a crash (or an injected [corpus.write] fault) mid-write
   leaves the corpus exactly as it was — no truncated QASM, no
   half-written manifest line. The temp file is removed on failure. *)
let write_atomic = Guard.File.write_atomic ~site:"corpus.write"

(* Each circuit file carries its own manifest metadata in a two-line
   header, so the manifest is derived state: it can always be rebuilt
   from the directory contents alone. (QASM [//] comments, invisible to
   the parser.) *)
let header_key = "// caqr-corpus "
let note_key = "// note: "

let header_of entry =
  Printf.sprintf "%sseed=%d oracle=%s\n%s%s\n" header_key entry.seed
    (Oracle.name entry.oracle) note_key entry.note

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let strip p s = String.sub s (String.length p) (String.length s - String.length p)

let metadata_of_header content =
  match String.split_on_char '\n' content with
  | l1 :: l2 :: _ when starts_with header_key l1 && starts_with note_key l2 -> (
    match
      String.split_on_char ' ' (strip header_key l1)
      |> List.filter (fun w -> w <> "")
    with
    | [ seed; oracle ]
      when starts_with "seed=" seed && starts_with "oracle=" oracle -> (
      match int_of_string_opt (strip "seed=" seed) with
      | Some s -> Some (s, strip "oracle=" oracle, strip note_key l2)
      | None -> None)
    | _ -> None)
  | _ -> None

let manifest_header =
  "# Minimized fuzz counterexamples, replayed by test/test_corpus.ml.\n\
   # Format: file <TAB> case seed <TAB> oracle <TAB> failure note at capture time.\n"

(* The manifest is rebuilt from a sorted directory scan, never appended:
   metadata comes from each file's header, falling back to the previous
   manifest for legacy header-less files; files with neither are
   skipped. The result lands atomically. *)
let rebuild_manifest ~dir ~old =
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".qasm")
    |> List.sort compare
    |> List.filter_map (fun file ->
           let from_old () = List.find_opt (fun e -> e.file = file) old in
           match
             metadata_of_header (Guard.File.read (Filename.concat dir file))
           with
           | Some (seed, oname, note) -> (
             match Oracle.of_name oname with
             | Ok oracle -> Some { file; seed; oracle; note }
             | Error _ -> from_old ())
           | None -> from_old ())
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf manifest_header;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s\t%d\t%s\t%s\n" e.file e.seed (Oracle.name e.oracle)
           e.note))
    entries;
  write_atomic ~dir ~file:manifest_name (Buffer.contents buf)

let add ~dir ~seed ~oracle ~note circuit =
  Guard.File.mkdir_p dir;
  let base = Printf.sprintf "%s-seed%d" (Oracle.name oracle) seed in
  let rec fresh i =
    let file =
      if i = 0 then base ^ ".qasm" else Printf.sprintf "%s-%d.qasm" base i
    in
    if Sys.file_exists (Filename.concat dir file) then fresh (i + 1) else file
  in
  let file = fresh 0 in
  let entry = { file; seed; oracle; note = clean note } in
  (* Old entries are read BEFORE anything is written, so a legacy
     manifest survives the rebuild even if this add fails midway. *)
  let old = load dir in
  write_atomic ~dir ~file
    (header_of entry ^ Quantum.Qasm.to_string circuit);
  rebuild_manifest ~dir ~old;
  entry

let read_circuit ~dir entry =
  Quantum.Qasm_parser.of_string (Guard.File.read (Filename.concat dir entry.file))
