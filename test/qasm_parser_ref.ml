(* Reference QASM parser: the statement-copying [Quantum.Qasm_parser]
   that the in-place scanner replaced, kept verbatim as a test oracle
   (only this header and the [open] are new). The scanner must accept
   the same programs with the same circuits, reject the rest with the
   same error detail, and hit the "parse.stmt" site as many times. *)

open Quantum

let stage = "quantum.qasm_parser"

(* Positioned parse failure: every diagnostic carries the 1-based line
   and column of the statement (or token) it refers to. *)
let fail (line, col) msg =
  raise
    (Guard.Error.Guard_error
       (Guard.Error.v ~stage ~site:"parse.stmt"
          (Printf.sprintf "line %d, col %d: %s" line col msg)))

(* Single streaming pass over the raw text: strip [//] comments, split
   on ';', and hand each statement to [f] together with the 1-based line
   and column of its first non-blank character. Nothing is materialized
   beyond the one statement currently being assembled, so a megabyte
   program costs one buffer, not a statement list. *)
let iter_statements text f =
  let n = String.length text in
  let buf = Buffer.create 64 in
  let start = ref None in
  let line = ref 1 and col = ref 0 in
  let in_comment = ref false in
  let flush () =
    (match (String.trim (Buffer.contents buf), !start) with
     | "", _ | _, None -> ()
     | stmt, Some p -> f p stmt);
    Buffer.clear buf;
    start := None
  in
  for i = 0 to n - 1 do
    let ch = text.[i] in
    incr col;
    if ch = '\n' then begin
      in_comment := false;
      incr line;
      col := 0;
      Buffer.add_char buf ' '
    end
    else if !in_comment then ()
    else if ch = '/' && i + 1 < n && text.[i + 1] = '/' then in_comment := true
    else if ch = ';' then flush ()
    else begin
      if ch <> ' ' && ch <> '\t' && !start = None then
        start := Some (!line, !col);
      Buffer.add_char buf ch
    end
  done;
  flush ()

(* "pi", "pi/2", "2*pi", "-pi", "1.5708", "-0.5" ... *)
let parse_angle pos s =
  let s = String.trim s in
  let parse_atom a =
    let a = String.trim a in
    if a = "pi" then Float.pi
    else
      match float_of_string_opt a with
      | Some f -> f
      | None -> fail pos (Printf.sprintf "bad angle %S" a)
  in
  let signed, body =
    if String.length s > 0 && s.[0] = '-' then
      (-1., String.sub s 1 (String.length s - 1))
    else (1., s)
  in
  let v =
    match String.index_opt body '*' with
    | Some i ->
      parse_atom (String.sub body 0 i)
      *. parse_atom (String.sub body (i + 1) (String.length body - i - 1))
    | None -> (
      match String.index_opt body '/' with
      | Some i ->
        parse_atom (String.sub body 0 i)
        /. parse_atom (String.sub body (i + 1) (String.length body - i - 1))
      | None -> parse_atom body)
  in
  signed *. v

(* "q[3]" -> 3 (register name is checked by the caller). *)
let parse_index pos ~reg s =
  let s = String.trim s in
  match (String.index_opt s '[', String.index_opt s ']') with
  | Some i, Some j when j > i ->
    let name = String.sub s 0 i in
    if name <> reg then
      fail pos (Printf.sprintf "expected register %S, got %S" reg name);
    (match int_of_string_opt (String.sub s (i + 1) (j - i - 1)) with
     | Some k ->
       if k < 0 then fail pos (Printf.sprintf "negative index in %S" s) else k
     | None -> fail pos (Printf.sprintf "bad index in %S" s))
  | _ -> fail pos (Printf.sprintf "expected %s[<n>], got %S" reg s)

let split_args s = String.split_on_char ',' s |> List.map String.trim

(* "rx(pi/2)" -> ("rx", Some "pi/2"); "h" -> ("h", None) *)
let split_head tok =
  match String.index_opt tok '(' with
  | Some i ->
    let close =
      match String.rindex_opt tok ')' with
      | Some j when j > i -> j
      | _ -> String.length tok
    in
    ( String.sub tok 0 i,
      Some (String.sub tok (i + 1) (close - i - 1)) )
  | None -> (tok, None)

(* Dispatch one statement. Declarations report their widths through
   [decl_qubits]/[decl_clbits]; every parsed gate kind flows through
   [add], in program order. *)
let handle_stmt ~decl_qubits ~decl_clbits ~add (pos, stmt) =
  let one_q pos name angle q =
    let g =
      match (name, angle) with
      | "h", None -> Gate.H
      | "x", None -> Gate.X
      | "y", None -> Gate.Y
      | "z", None -> Gate.Z
      | "s", None -> Gate.S
      | "sdg", None -> Gate.Sdg
      | "t", None -> Gate.T
      | "tdg", None -> Gate.Tdg
      | "sx", None -> Gate.Sx
      | "rx", Some a -> Gate.Rx (parse_angle pos a)
      | "ry", Some a -> Gate.Ry (parse_angle pos a)
      | "rz", Some a -> Gate.Rz (parse_angle pos a)
      | "p", Some a -> Gate.Phase (parse_angle pos a)
      | _ -> fail pos (Printf.sprintf "unsupported gate %S" name)
    in
    add (Gate.One_q (g, q))
  in
  Guard.Inject.hit "parse.stmt";
  (* Normalize interior whitespace to single spaces. *)
  begin
      let words =
        String.split_on_char ' ' stmt |> List.filter (fun w -> w <> "")
      in
      let stmt = String.concat " " words in
      match words with
      | [] -> ()
      | first :: _ when first = "OPENQASM" || first = "include" -> ()
      | _ ->
        (* Handle declarations and operations uniformly below. *)
        let starts_with p =
          String.length stmt >= String.length p
          && String.sub stmt 0 (String.length p) = p
        in
        if starts_with "qubit[" || starts_with "qreg " then begin
          let s = if starts_with "qreg " then String.sub stmt 5 (String.length stmt - 5) else stmt in
          match (String.index_opt s '[', String.index_opt s ']') with
          | Some i, Some j when j > i ->
            (match int_of_string_opt (String.sub s (i + 1) (j - i - 1)) with
             | Some n when n >= 0 -> decl_qubits n
             | _ -> fail pos "bad qubit count")
          | _ -> fail pos "bad qubit declaration"
        end
        else if starts_with "bit[" || starts_with "creg " then begin
          let s = if starts_with "creg " then String.sub stmt 5 (String.length stmt - 5) else stmt in
          match (String.index_opt s '[', String.index_opt s ']') with
          | Some i, Some j when j > i ->
            (match int_of_string_opt (String.sub s (i + 1) (j - i - 1)) with
             | Some n when n >= 0 -> decl_clbits n
             | _ -> fail pos "bad bit count")
          | _ -> fail pos "bad bit declaration"
        end
        else if starts_with "barrier" then begin
          let args = String.sub stmt 7 (String.length stmt - 7) in
          add (Gate.Barrier (List.map (parse_index pos ~reg:"q") (split_args args)))
        end
        else if starts_with "reset " then
          add (Gate.Reset (parse_index pos ~reg:"q" (String.sub stmt 6 (String.length stmt - 6))))
        else if starts_with "if" then begin
          (* if (c[i]) x q[j] *)
          match (String.index_opt stmt '(', String.index_opt stmt ')') with
          | Some open_p, Some close_p when close_p > open_p ->
            let cond = String.sub stmt (open_p + 1) (close_p - open_p - 1) in
            let cb = parse_index pos ~reg:"c" cond in
            let rest = String.trim (String.sub stmt (close_p + 1) (String.length stmt - close_p - 1)) in
            (match String.split_on_char ' ' rest |> List.filter (fun w -> w <> "") with
             | [ "x"; qarg ] -> add (Gate.If_x (cb, parse_index pos ~reg:"q" qarg))
             | _ -> fail pos "only `if (c[i]) x q[j]` is supported")
          | _ -> fail pos "malformed if condition"
        end
        else if starts_with "measure " then begin
          (* OpenQASM 2: measure q[j] -> c[i] *)
          let body = String.sub stmt 8 (String.length stmt - 8) in
          let split_arrow s =
            let n = String.length s in
            let rec go i =
              if i + 1 >= n then None
              else if s.[i] = '-' && s.[i + 1] = '>' then
                Some (String.sub s 0 i, String.sub s (i + 2) (n - i - 2))
              else go (i + 1)
            in
            go 0
          in
          match split_arrow body with
          | Some (qarg, carg) ->
            add
              (Gate.Measure
                 (parse_index pos ~reg:"q" qarg, parse_index pos ~reg:"c" carg))
          | None -> fail pos "measure needs `-> c[i]`"
        end
        else if String.contains stmt '=' && not (String.contains stmt '(') then begin
          (* OpenQASM 3: c[i] = measure q[j] *)
          let eq = String.index stmt '=' in
          let lhs = String.trim (String.sub stmt 0 eq) in
          let rhs = String.trim (String.sub stmt (eq + 1) (String.length stmt - eq - 1)) in
          let cb = parse_index pos ~reg:"c" lhs in
          match String.split_on_char ' ' rhs |> List.filter (fun w -> w <> "") with
          | [ "measure"; qarg ] ->
            add (Gate.Measure (parse_index pos ~reg:"q" qarg, cb))
          | _ -> fail pos "only `c[i] = measure q[j]` assignments are supported"
        end
        else begin
          (* gate applications *)
          match words with
          | head :: args ->
            let name, angle = split_head head in
            let operands = split_args (String.concat " " args) in
            (match (name, operands) with
             | ("cx" | "cz" | "swap" | "rzz"), [ a; b ] ->
               let qa = parse_index pos ~reg:"q" a
               and qb = parse_index pos ~reg:"q" b in
               (match (name, angle) with
                | "cx", None -> add (Gate.Cx (qa, qb))
                | "cz", None -> add (Gate.Cz (qa, qb))
                | "swap", None -> add (Gate.Swap (qa, qb))
                | "rzz", Some th -> add (Gate.Rzz (parse_angle pos th, qa, qb))
                | _ -> fail pos (Printf.sprintf "bad 2-qubit gate %S" name))
             | _, [ qarg ] -> one_q pos name angle (parse_index pos ~reg:"q" qarg)
             | _ -> fail pos (Printf.sprintf "unsupported statement %S" stmt))
          | [] -> ()
        end
  end

(* Streaming import: the gate kinds land in a doubling array, so a
   1000-qubit program costs one growable buffer plus the final circuit
   instead of two intermediate lists. *)
let parse_exn text =
  let num_qubits = ref 0 and num_clbits = ref 0 in
  let kinds = ref (Array.make 64 (Gate.Reset 0)) in
  let len = ref 0 in
  let add k =
    if !len = Array.length !kinds then begin
      let bigger = Array.make (2 * !len) k in
      Array.blit !kinds 0 bigger 0 !len;
      kinds := bigger
    end;
    !kinds.(!len) <- k;
    incr len
  in
  iter_statements text (fun pos stmt ->
      handle_stmt
        ~decl_qubits:(fun n -> num_qubits := max !num_qubits n)
        ~decl_clbits:(fun n -> num_clbits := max !num_clbits n)
        ~add (pos, stmt));
  Circuit.of_kind_array ~num_qubits:!num_qubits ~num_clbits:!num_clbits
    (Array.sub !kinds 0 !len)

(* [Circuit.of_kind_array] validates operand ranges, so the boundary
   also converts its [Invalid_argument] (e.g. a gate on an undeclared
   wire) into the structured diagnostic. *)
let parse text = Guard.Error.protect ~stage ~site:"parse.stmt" (fun () -> parse_exn text)

let of_string text =
  match parse text with
  | Ok c -> c
  | Error e -> failwith ("Qasm_parser: " ^ e.Guard.Error.detail)
