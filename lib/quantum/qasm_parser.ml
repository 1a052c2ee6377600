let stage = "quantum.qasm_parser"

(* The 1-based line and column of the statement being read: every
   diagnostic carries them. One record per parse. *)
type pos = { mutable line : int; mutable col : int }

let fail p msg =
  raise
    (Guard.Error.Guard_error
       (Guard.Error.v ~stage ~site:"parse.stmt"
          (Printf.sprintf "line %d, col %d: %s" p.line p.col msg)))

(* ---- ranges ----

   The grammar reads a statement as the half-open range [lo, hi) of a
   string, in its normal form: [//] comments dropped, newlines read as
   spaces, the ends trimmed as [String.trim] trims them, and every run
   of spaces inside read as one. Most statements are already in normal
   form in the source, and are read there in place. *)

let is_trim = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec ltrim s a b = if a < b && is_trim s.[a] then ltrim s (a + 1) b else a
let rec rtrim s a b = if b > a && is_trim s.[b - 1] then rtrim s a (b - 1) else b

(* First / last position of [c] in [a, b), or -1. *)
let rec index s c a b = if a >= b then -1 else if s.[a] = c then a else index s c (a + 1) b
let rec rindex s c a b = if b <= a then -1 else if s.[b - 1] = c then b - 1 else rindex s c a (b - 1)

let rec prefix s a lit i = i = String.length lit || (s.[a + i] = lit.[i] && prefix s a lit (i + 1))
let starts s a b lit = b - a >= String.length lit && prefix s a lit 0

let equal s a b lit = b - a = String.length lit && starts s a b lit
let sub s a b = String.sub s a (b - a)

(* The value of [s.[a..b)] when it is 1 to 18 decimal digits (so it
   cannot overflow), else -1. *)
let rec decimal s i b acc =
  if i = b then acc
  else
    match s.[i] with
    | '0' .. '9' as ch -> decimal s (i + 1) b ((10 * acc) + Char.code ch - 48)
    | _ -> -1

let digits s a b = if b - a < 1 || b - a > 18 then -1 else decimal s a b 0

(* [int_of_string_opt] on the range, which every other spelling ("+3",
   "0x1f", "1_000", overflow) still goes through. *)
let int_opt s a b =
  match digits s a b with
  | -1 -> int_of_string_opt (sub s a b)
  | k -> Some k

(* "q[3]" -> 3, the register name checked against [reg]. *)
let parse_index p reg s a b =
  let a = ltrim s a b in
  let b = rtrim s a b in
  let i = index s '[' a b and j = index s ']' a b in
  if i >= 0 && j > i then begin
    if not (equal s a i reg) then
      fail p (Printf.sprintf "expected register %S, got %S" reg (sub s a i));
    match digits s (i + 1) j with
    | -1 -> (
      match int_of_string_opt (sub s (i + 1) j) with
      | Some k when k < 0 -> fail p (Printf.sprintf "negative index in %S" (sub s a b))
      | Some k -> k
      | None -> fail p (Printf.sprintf "bad index in %S" (sub s a b)))
    | k -> k
  end
  else fail p (Printf.sprintf "expected %s[<n>], got %S" reg (sub s a b))

(* "pi", "pi/2", "2*pi", "-pi", "1.5708", "-0.5" ... The right operand
   is read first, so of two bad atoms the right one is reported. *)
let parse_atom p s a b =
  let a = ltrim s a b in
  let b = rtrim s a b in
  if equal s a b "pi" then Float.pi
  else
    match float_of_string_opt (sub s a b) with
    | Some f -> f
    | None -> fail p (Printf.sprintf "bad angle %S" (sub s a b))

let parse_angle p s a b =
  let a = ltrim s a b in
  let b = rtrim s a b in
  let neg = b > a && s.[a] = '-' in
  let a = if neg then a + 1 else a in
  let v =
    match index s '*' a b with
    | -1 -> (
      match index s '/' a b with
      | -1 -> parse_atom p s a b
      | i ->
        let r = parse_atom p s (i + 1) b in
        parse_atom p s a i /. r)
    | i ->
      let r = parse_atom p s (i + 1) b in
      parse_atom p s a i *. r
  in
  (if neg then -1. else 1.) *. v

(* ---- statements ---- *)

(* The declared widths (the largest declaration wins) and the gate kinds
   in program order, in a doubling array. *)
type acc = {
  mutable qubits : int;
  mutable clbits : int;
  mutable kinds : Gate.kind array;
  mutable len : int;
}

let add acc k =
  if acc.len = Array.length acc.kinds then begin
    let bigger = Array.make (2 * acc.len) k in
    Array.blit acc.kinds 0 bigger 0 acc.len;
    acc.kinds <- bigger
  end;
  acc.kinds.(acc.len) <- k;
  acc.len <- acc.len + 1

(* "qubit[n] q" / "qreg q[n]" and the bit forms, from [a]. *)
let declared p what s a b =
  let i = index s '[' a b and j = index s ']' a b in
  if i >= 0 && j > i then
    match int_opt s (i + 1) j with
    | Some n when n >= 0 -> n
    | _ -> fail p ("bad " ^ what ^ " count")
  else fail p ("bad " ^ what ^ " declaration")

let rec barrier_wires p s a b wires =
  match index s ',' a b with
  | -1 -> List.rev (parse_index p "q" s a b :: wires)
  | c -> barrier_wires p s (c + 1) b (parse_index p "q" s a c :: wires)

(* [a, b) trimmed is exactly two words, the first [first]: the position
   of the second, else -1. *)
let second_word s a b first =
  let a = ltrim s a b in
  let b = rtrim s a b in
  match index s ' ' a b with
  | -1 -> -1
  | sp -> if equal s a sp first && index s ' ' (sp + 1) b < 0 then sp + 1 else -1

let unsupported p s a b = fail p (Printf.sprintf "unsupported gate %S" (sub s a b))

(* The one-qubit gate named [s.[a..b)]; [angle] is the start of its
   parenthesised argument, or -1. *)
let one_q p s a b angle angle_hi =
  if angle < 0 then
    if equal s a b "h" then Gate.H
    else if equal s a b "x" then Gate.X
    else if equal s a b "y" then Gate.Y
    else if equal s a b "z" then Gate.Z
    else if equal s a b "s" then Gate.S
    else if equal s a b "sdg" then Gate.Sdg
    else if equal s a b "t" then Gate.T
    else if equal s a b "tdg" then Gate.Tdg
    else if equal s a b "sx" then Gate.Sx
    else unsupported p s a b
  else if equal s a b "rx" then Gate.Rx (parse_angle p s angle angle_hi)
  else if equal s a b "ry" then Gate.Ry (parse_angle p s angle angle_hi)
  else if equal s a b "rz" then Gate.Rz (parse_angle p s angle angle_hi)
  else if equal s a b "p" then Gate.Phase (parse_angle p s angle angle_hi)
  else unsupported p s a b

(* A gate application: [head args], the head [name] or [name(angle)]. *)
let gate p acc s lo hi =
  let w1 = match index s ' ' lo hi with -1 -> hi | i -> i in
  let op = index s '(' lo w1 in
  let name_end = if op < 0 then w1 else op in
  let angle_hi =
    if op < 0 then -1 else match rindex s ')' lo w1 with j when j > op -> j | _ -> w1
  in
  let angle = if op < 0 then -1 else op + 1 in
  let args = if w1 < hi then w1 + 1 else hi in
  let cx = equal s lo name_end "cx" and cz = equal s lo name_end "cz" in
  let swap = equal s lo name_end "swap" and rzz = equal s lo name_end "rzz" in
  match index s ',' args hi with
  | c when c >= 0 && index s ',' (c + 1) hi < 0 && (cx || cz || swap || rzz) ->
    let qa = parse_index p "q" s args c in
    let qb = parse_index p "q" s (c + 1) hi in
    add acc
      (if angle < 0 && cx then Gate.Cx (qa, qb)
       else if angle < 0 && cz then Gate.Cz (qa, qb)
       else if angle < 0 && swap then Gate.Swap (qa, qb)
       else if angle >= 0 && rzz then Gate.Rzz (parse_angle p s angle angle_hi, qa, qb)
       else fail p (Printf.sprintf "bad 2-qubit gate %S" (sub s lo name_end)))
  | -1 ->
    let q = parse_index p "q" s args hi in
    add acc (Gate.One_q (one_q p s lo name_end angle angle_hi, q))
  | _ -> fail p (Printf.sprintf "unsupported statement %S" (sub s lo hi))

(* Dispatch one statement in normal form. *)
let statement p acc s lo hi =
  Guard.Inject.hit "parse.stmt";
  let w1 = match index s ' ' lo hi with -1 -> hi | i -> i in
  if equal s lo w1 "OPENQASM" || equal s lo w1 "include" then ()
  else if starts s lo hi "qubit[" || starts s lo hi "qreg " then
    let from = if starts s lo hi "qreg " then lo + 5 else lo in
    acc.qubits <- max acc.qubits (declared p "qubit" s from hi)
  else if starts s lo hi "bit[" || starts s lo hi "creg " then
    let from = if starts s lo hi "creg " then lo + 5 else lo in
    acc.clbits <- max acc.clbits (declared p "bit" s from hi)
  else if starts s lo hi "barrier" then
    add acc (Gate.Barrier (barrier_wires p s (lo + 7) hi []))
  else if starts s lo hi "reset " then add acc (Gate.Reset (parse_index p "q" s (lo + 6) hi))
  else if starts s lo hi "if" then begin
    (* if (c[i]) x q[j] *)
    let op = index s '(' lo hi and cl = index s ')' lo hi in
    if op < 0 || cl <= op then fail p "malformed if condition";
    let cb = parse_index p "c" s (op + 1) cl in
    match second_word s (cl + 1) hi "x" with
    | -1 -> fail p "only `if (c[i]) x q[j]` is supported"
    | q -> add acc (Gate.If_x (cb, parse_index p "q" s q hi))
  end
  else if starts s lo hi "measure " then begin
    (* OpenQASM 2: measure q[j] -> c[i], the clbit read first *)
    let rec arrow i =
      if i + 1 >= hi then -1 else if s.[i] = '-' && s.[i + 1] = '>' then i else arrow (i + 1)
    in
    match arrow (lo + 8) with
    | -1 -> fail p "measure needs `-> c[i]`"
    | i ->
      let cb = parse_index p "c" s (i + 2) hi in
      add acc (Gate.Measure (parse_index p "q" s (lo + 8) i, cb))
  end
  else
    match index s '=' lo hi with
    | eq when eq >= 0 && index s '(' lo hi < 0 -> (
      (* OpenQASM 3: c[i] = measure q[j] *)
      let cb = parse_index p "c" s lo eq in
      match second_word s (eq + 1) hi "measure" with
      | -1 -> fail p "only `c[i] = measure q[j]` assignments are supported"
      | q -> add acc (Gate.Measure (parse_index p "q" s q hi, cb)))
    | _ -> gate p acc s lo hi

(* [text.[a..b)] in normal form, for a statement that is not already:
   comments dropped, newlines and runs of spaces read as one space. *)
let normalize text a b =
  let out = Buffer.create (b - a) in
  let n = String.length text in
  let in_comment = ref false in
  for i = a to b - 1 do
    let ch = text.[i] in
    if ch = '\n' then in_comment := false
    else if (not !in_comment) && ch = '/' && i + 1 < n && text.[i + 1] = '/' then
      in_comment := true;
    if not !in_comment then begin
      let ch = if ch = '\n' then ' ' else ch in
      if not (ch = ' ' && Buffer.nth out (Buffer.length out - 1) = ' ') then
        Buffer.add_char out ch
    end
  done;
  Buffer.contents out

(* One pass over the raw text: statements end at ';', [//] comments run
   to the end of the line. A statement's position is that of its first
   character other than a space, tab or newline outside a comment; its
   extent is [first, last) over the characters [String.trim] keeps. It
   is read in place unless a comment, a newline or a second space lies
   inside that extent, and a statement that trims to nothing is
   skipped. *)
let parse_exn text =
  let n = String.length text in
  let p = { line = 0; col = 0 } in
  let acc = { qubits = 0; clbits = 0; kinds = Array.make 64 (Gate.Reset 0); len = 0 } in
  let line = ref 1 and col = ref 0 and in_comment = ref false in
  let started = ref false and first = ref (-1) and last = ref 0 in
  let irregular = ref max_int in
  let flush () =
    if !first >= 0 then begin
      if !irregular >= !last then statement p acc text !first !last
      else
        let s = normalize text !first !last in
        statement p acc s 0 (String.length s)
    end;
    started := false;
    first := -1;
    irregular := max_int
  in
  let mark i = if !first >= 0 && !irregular = max_int then irregular := i in
  for i = 0 to n - 1 do
    let ch = text.[i] in
    incr col;
    if ch = '\n' then begin
      in_comment := false;
      incr line;
      col := 0;
      mark i
    end
    else if !in_comment then ()
    else if ch = '/' && i + 1 < n && text.[i + 1] = '/' then begin
      in_comment := true;
      mark i
    end
    else if ch = ';' then flush ()
    else begin
      if ch <> ' ' && ch <> '\t' && not !started then begin
        started := true;
        p.line <- !line;
        p.col <- !col
      end;
      if not (is_trim ch) then begin
        if !first < 0 then first := i;
        last := i + 1
      end
      else if ch = ' ' && !first >= 0 && text.[i - 1] = ' ' then mark i
    end
  done;
  flush ();
  Circuit.of_kind_array ~num_qubits:acc.qubits ~num_clbits:acc.clbits
    (Array.sub acc.kinds 0 acc.len)

(* [Circuit.of_kind_array] validates operand ranges, so the boundary
   also converts its [Invalid_argument] (e.g. a gate on an undeclared
   wire) into the structured diagnostic. *)
let parse text = Guard.Error.protect ~stage ~site:"parse.stmt" (fun () -> parse_exn text)

let of_string text =
  match parse text with
  | Ok c -> c
  | Error e -> failwith ("Qasm_parser: " ^ e.Guard.Error.detail)
