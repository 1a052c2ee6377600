(* Polymorphic-compare lint. OCaml compiles [compare], [=], [<] and the
   rest to a C call into the runtime's generic structural comparison
   whenever the operand type is not known to be an immediate or a float:
   an unannotated array slot or a tuple is enough. The call allocates
   nothing, so no minor-words gate sees it, yet it costs a function call
   and a tag dispatch per comparison; an unannotated heapsort once made
   the 250-qubit QS searches 1.5x slower this way.

   The rule reads the undefined symbols of every object in the hot-path
   libraries ([nm -u] on each library archive) and fails on any of the
   runtime's polymorphic comparison primitives, unless the module is
   allow-listed below for that primitive with a one-line reason. An
   allow-list entry that no longer matches fails too, so the list
   shrinks as modules are cleaned.

   Run alone with [dune exec test/test_polycmp.exe]. *)

let primitives =
  [
    "caml_compare";
    "caml_equal";
    "caml_notequal";
    "caml_lessthan";
    "caml_lessequal";
    "caml_greaterthan";
    "caml_greaterequal";
  ]

(* The libraries the rule covers, by archive path under the build's
   root: lib/{core,transpiler,verify,quantum,hardware,sim,galg,serve,obs}. *)
let archives =
  [
    "lib/core/caqr.a";
    "lib/transpiler/transpiler.a";
    "lib/verify/verify.a";
    "lib/quantum/quantum.a";
    "lib/hardware/hardware.a";
    "lib/sim/sim.a";
    "lib/galg/galg.a";
    "lib/serve/serve.a";
    "lib/obs/obs.a";
  ]

(* (module, primitive, reason); empty since every covered module
   compares ints, floats and strings with typed operators. *)
let allowed : (string * string * string) list = []

(* The build root: the test binary sits in <root>/test. *)
let build_root = Filename.dirname (Filename.dirname Sys.executable_name)

(* "caqr__Reuse.o" -> "Reuse"; a library's alias module "caqr.o" ->
   "Caqr". *)
let module_of_member m =
  let base = Filename.chop_suffix m ".o" in
  let n = String.length base in
  let rec sep i =
    if i + 1 >= n then String.capitalize_ascii base
    else if base.[i] = '_' && base.[i + 1] = '_' then String.sub base (i + 2) (n - i - 2)
    else sep (i + 1)
  in
  sep 0

(* (module, primitive) for every polymorphic-compare reference in
   [archive]. *)
let references archive =
  let path = Filename.concat build_root archive in
  if not (Sys.file_exists path) then Alcotest.failf "no archive %s" path;
  let ic = Unix.open_process_in ("nm -u " ^ Filename.quote path ^ " 2>&1") in
  let found = ref [] and member = ref "?" in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if Filename.check_suffix line ".o:" then
         member := module_of_member (String.sub line 0 (String.length line - 1))
       else
         match String.split_on_char ' ' line with
         | [ "U"; sym ] when List.mem sym primitives ->
           found := (!member, sym) :: !found
         | _ -> ()
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> Alcotest.failf "nm -u %s failed" path);
  List.rev !found

let test_archives () =
  let found = List.concat_map references archives in
  let bad =
    List.filter
      (fun (m, p) -> not (List.exists (fun (m', p', _) -> m = m' && p = p') allowed))
      found
  in
  List.iter (fun (m, p) -> Printf.printf "%s references %s\n%!" m p) bad;
  Alcotest.(check int) "polymorphic compares outside the allow-list" 0
    (List.length bad);
  let stale = List.filter (fun (m, p, _) -> not (List.mem (m, p) found)) allowed in
  List.iter (fun (m, p, _) -> Printf.printf "stale entry: %s %s\n%!" m p) stale;
  Alcotest.(check int) "allow-list entries with no reference" 0
    (List.length stale)

(* The pair-engine kernel must stay clean with no exception. *)
let test_kernel_clean () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m ^ " is not allow-listed")
        false
        (List.exists (fun (m', _, _) -> m = m') allowed))
    [ "Reuse"; "Cone_caqr"; "Gidnet_caqr" ]

let () =
  Alcotest.run "polycmp"
    [
      ( "lint",
        [
          Alcotest.test_case "hot-path archives" `Quick test_archives;
          Alcotest.test_case "pair-engine kernel clean" `Quick test_kernel_clean;
        ] );
    ]
