type t = { num_qubits : int; num_clbits : int; gates : Gate.t array }

let in_range n x = x >= 0 && x < n

(* Allocation-free except on barriers: emission builds every child
   circuit of the QS search through here, one check per gate. *)
let check_kind ~num_qubits ~num_clbits kind =
  let qubits_ok =
    match kind with
    | Gate.One_q (_, q) | Gate.Reset q | Gate.Measure (q, _) | Gate.If_x (_, q)
      ->
      in_range num_qubits q
    | Gate.Cx (a, b) | Gate.Cz (a, b) | Gate.Rzz (_, a, b) | Gate.Swap (a, b) ->
      in_range num_qubits a && in_range num_qubits b
    | Gate.Barrier qs -> List.for_all (in_range num_qubits) qs
  in
  if not qubits_ok then
    invalid_arg
      (Format.asprintf "Circuit: qubit out of range in %a" Gate.pp
         { Gate.id = -1; kind });
  let clbits_ok =
    match kind with
    | Gate.Measure (_, c) | Gate.If_x (c, _) -> in_range num_clbits c
    | Gate.One_q _ | Gate.Cx _ | Gate.Cz _ | Gate.Rzz _ | Gate.Swap _
    | Gate.Reset _ | Gate.Barrier _ ->
      true
  in
  if not clbits_ok then invalid_arg "Circuit: classical bit out of range"

let empty ~num_qubits ~num_clbits =
  if num_qubits < 0 || num_clbits < 0 then invalid_arg "Circuit.empty";
  { num_qubits; num_clbits; gates = [||] }

(* Numbers the first [len] kinds 0.. without checking them: every caller
   has checked each kind once already. *)
let number ~num_qubits ~num_clbits kinds len =
  let gates =
    if len = 0 then [||] else Array.make len { Gate.id = 0; kind = kinds.(0) }
  in
  for id = 1 to len - 1 do
    gates.(id) <- { Gate.id; kind = kinds.(id) }
  done;
  { num_qubits; num_clbits; gates }

let of_kind_prefix ~num_qubits ~num_clbits kinds len =
  for i = 0 to len - 1 do
    check_kind ~num_qubits ~num_clbits kinds.(i)
  done;
  number ~num_qubits ~num_clbits kinds len

let of_kind_array ~num_qubits ~num_clbits kinds =
  of_kind_prefix ~num_qubits ~num_clbits kinds (Array.length kinds)

let of_kinds ~num_qubits ~num_clbits kinds =
  of_kind_array ~num_qubits ~num_clbits (Array.of_list kinds)

let gate_count c = Array.length c.gates

let count p c =
  Array.fold_left (fun n g -> if p g.Gate.kind then n + 1 else n) 0 c.gates

let two_q_count c = count Gate.is_two_q c

let swap_count c =
  count (function Gate.Swap _ -> true | _ -> false) c

let mid_circuit_measurements c =
  let n = ref 0 in
  let last_op = Array.make c.num_qubits (-1) in
  Array.iter
    (fun g ->
      if not (Gate.is_barrier g.Gate.kind) then
        List.iter (fun q -> last_op.(q) <- g.Gate.id) (Gate.qubits g.Gate.kind))
    c.gates;
  Array.iter
    (fun g ->
      match g.Gate.kind with
      | Gate.Measure (q, _) when last_op.(q) <> g.Gate.id -> incr n
      | _ -> ())
    c.gates;
  !n

(* Matches on the kind, so no operand list is built per gate. *)
let active_qubits c =
  let used = Array.make c.num_qubits false in
  Array.iter
    (fun g ->
      match g.Gate.kind with
      | Gate.One_q (_, q) | Gate.Reset q | Gate.Measure (q, _) | Gate.If_x (_, q)
        ->
        used.(q) <- true
      | Gate.Cx (a, b) | Gate.Cz (a, b) | Gate.Rzz (_, a, b) | Gate.Swap (a, b) ->
        used.(a) <- true;
        used.(b) <- true
      | Gate.Barrier _ -> ())
    c.gates;
  let acc = ref [] in
  for q = c.num_qubits - 1 downto 0 do
    if used.(q) then acc := q :: !acc
  done;
  !acc

let imax (a : int) b = if a >= b then a else b

let rec front_of qfront acc = function
  | [] -> acc
  | q :: qs -> front_of qfront (imax acc qfront.(q)) qs

(* Per-wire front times; a gate starts at the max front over its qubit
   wires and clbits. Matching on the kind instead of reading
   [Gate.qubits]/[Gate.clbits] keeps the loop free of allocation beyond
   the two front arrays (the depth and duration of every compile go
   through here). *)
let schedule ?on_gate dur c =
  let qfront = Array.make (max 1 c.num_qubits) 0 in
  let cfront = Array.make (max 1 c.num_clbits) 0 in
  let total = ref 0 in
  for i = 0 to Array.length c.gates - 1 do
    let k = c.gates.(i).Gate.kind in
    let start =
      match k with
      | Gate.One_q (_, q) | Gate.Reset q -> qfront.(q)
      | Gate.Measure (q, b) | Gate.If_x (b, q) -> imax qfront.(q) cfront.(b)
      | Gate.Cx (a, b) | Gate.Cz (a, b) | Gate.Rzz (_, a, b) | Gate.Swap (a, b)
        ->
        imax qfront.(a) qfront.(b)
      | Gate.Barrier qs -> front_of qfront 0 qs
    in
    let finish = if Gate.is_barrier k then start else start + dur k in
    (match k with
     | Gate.One_q (_, q) | Gate.Reset q -> qfront.(q) <- finish
     | Gate.Measure (q, b) | Gate.If_x (b, q) ->
       qfront.(q) <- finish;
       cfront.(b) <- finish
     | Gate.Cx (a, b) | Gate.Cz (a, b) | Gate.Rzz (_, a, b) | Gate.Swap (a, b)
       ->
       qfront.(a) <- finish;
       qfront.(b) <- finish
     | Gate.Barrier _ -> ());
    if finish > !total then total := finish;
    match on_gate with None -> () | Some f -> f i start finish
  done;
  !total

let depth c = schedule (fun _ -> 1) c
let duration model c = schedule (Duration.of_kind model) c

let interaction_graph c =
  let g = Galg.Graph.create c.num_qubits in
  Array.iter
    (fun gate ->
      if Gate.is_two_q gate.Gate.kind then
        match Gate.qubits gate.Gate.kind with
        | [ a; b ] -> Galg.Graph.add_edge g a b
        | _ -> ())
    c.gates;
  g

let map_qubits ~num_qubits f c =
  of_kind_array ~num_qubits ~num_clbits:c.num_clbits
    (Array.map (fun g -> Gate.map_qubits f g.Gate.kind) c.gates)

(* A wire is used when any gate, a barrier included, touches it. *)
let compaction c remap =
  Array.fill remap 0 c.num_qubits (-1);
  let use q = remap.(q) <- 0 in
  for i = 0 to Array.length c.gates - 1 do
    match c.gates.(i).Gate.kind with
    | Gate.One_q (_, q) | Gate.Reset q | Gate.Measure (q, _) | Gate.If_x (_, q)
      ->
      use q
    | Gate.Cx (a, b) | Gate.Cz (a, b) | Gate.Rzz (_, a, b) | Gate.Swap (a, b) ->
      use a;
      use b
    | Gate.Barrier qs -> List.iter use qs
  done;
  let next = ref 0 in
  for q = 0 to c.num_qubits - 1 do
    if remap.(q) = 0 then begin
      remap.(q) <- !next;
      incr next
    end
  done;
  !next

(* The renamed kinds need no range check: every used wire maps below the
   compacted width. A gate no wire of which moves keeps its record. *)
let compact_qubits c =
  let remap = Array.make c.num_qubits (-1) in
  let width = compaction c remap in
  let rename q = remap.(q) in
  let gates =
    Array.map
      (fun g ->
        let kind = Gate.map_qubits rename g.Gate.kind in
        if kind == g.Gate.kind then g else { g with Gate.kind })
      c.gates
  in
  ({ c with num_qubits = width; gates }, remap)

let measure_all c =
  let nc = max c.num_clbits c.num_qubits in
  let kinds =
    Array.to_list (Array.map (fun g -> g.Gate.kind) c.gates)
    @ List.map (fun q -> Gate.Measure (q, q)) (active_qubits c)
  in
  of_kinds ~num_qubits:c.num_qubits ~num_clbits:nc kinds

(* ---- content digest ----

   The serialization below is the circuit's semantic content and nothing
   else: widths plus the ordered gate kinds, with rotation angles
   rendered as their exact IEEE-754 bit pattern (a decimal rendering
   would either lose bits or depend on printf rounding). Gate ids, array
   identity and construction history are invisible, so any two physical
   representations of the same circuit — built gate by gate, rebuilt by
   a transformation, or re-parsed from the canonical QASM-3 emission —
   digest identically. The "circuit/1" tag versions the serialization
   itself. Integers and bit patterns are written straight into the
   buffer, with no format string or intermediate string per gate. *)
let rec add_digits b n =
  (* [n <= 0]: writes the digits of [-n], so [min_int] needs no case. *)
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

(* [string_of_int], written in place. *)
let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

(* The bit pattern as [Printf "%Lx"] renders it: lowercase hex, no
   leading zeros. *)
let add_angle b th =
  let bits = Int64.bits_of_float th in
  let top = ref 15 in
  while !top > 0 && Int64.(to_int (shift_right_logical bits (4 * !top))) land 15 = 0 do
    decr top
  done;
  for k = !top downto 0 do
    Buffer.add_char b
      "0123456789abcdef".[Int64.(to_int (shift_right_logical bits (4 * k))) land 15]
  done

let canon_buf b c =
  Buffer.add_string b "circuit/1 q=";
  add_int b c.num_qubits;
  Buffer.add_string b " c=";
  add_int b c.num_clbits;
  Buffer.add_char b '\n';
  let one_q : Gate.one_q -> unit = function
    | H -> Buffer.add_string b "h" | X -> Buffer.add_string b "x"
    | Y -> Buffer.add_string b "y" | Z -> Buffer.add_string b "z"
    | S -> Buffer.add_string b "s" | Sdg -> Buffer.add_string b "sdg"
    | T -> Buffer.add_string b "t" | Tdg -> Buffer.add_string b "tdg"
    | Sx -> Buffer.add_string b "sx"
    | Rx th -> Buffer.add_string b "rx "; add_angle b th
    | Ry th -> Buffer.add_string b "ry "; add_angle b th
    | Rz th -> Buffer.add_string b "rz "; add_angle b th
    | Phase th -> Buffer.add_string b "p "; add_angle b th
  in
  let op name a q =
    Buffer.add_string b name;
    add_int b a;
    Buffer.add_char b ' ';
    add_int b q
  in
  for i = 0 to Array.length c.gates - 1 do
    (match c.gates.(i).Gate.kind with
     | Gate.One_q (u, q) ->
       one_q u;
       Buffer.add_char b ' ';
       add_int b q
     | Gate.Cx (a, q) -> op "cx " a q
     | Gate.Cz (a, q) -> op "cz " a q
     | Gate.Rzz (th, a, q) ->
       Buffer.add_string b "rzz ";
       add_angle b th;
       op " " a q
     | Gate.Swap (a, q) -> op "swap " a q
     | Gate.Measure (q, cb) -> op "measure " q cb
     | Gate.Reset q ->
       Buffer.add_string b "reset ";
       add_int b q
     | Gate.If_x (cb, q) -> op "if_x " cb q
     | Gate.Barrier qs ->
       Buffer.add_string b "barrier ";
       List.iteri
         (fun j q ->
           if j > 0 then Buffer.add_char b ' ';
           add_int b q)
         qs);
    Buffer.add_char b '\n'
  done

let digest c =
  let b = Buffer.create (64 + (16 * Array.length c.gates)) in
  canon_buf b c;
  Digest.to_hex (Digest.string (Buffer.contents b))

module Builder = struct
  type circuit = t
  type nonrec t = {
    num_qubits : int;
    num_clbits : int;
    mutable kinds : Gate.kind array;
    mutable len : int;
  }

  let create ~num_qubits ~num_clbits =
    { num_qubits; num_clbits; kinds = [||]; len = 0 }

  let add b kind =
    check_kind ~num_qubits:b.num_qubits ~num_clbits:b.num_clbits kind;
    if b.len = Array.length b.kinds then begin
      let bigger = Array.make (max 16 (2 * b.len)) kind in
      Array.blit b.kinds 0 bigger 0 b.len;
      b.kinds <- bigger
    end;
    b.kinds.(b.len) <- kind;
    b.len <- b.len + 1

  let h b q = add b (Gate.One_q (Gate.H, q))
  let x b q = add b (Gate.One_q (Gate.X, q))
  let z b q = add b (Gate.One_q (Gate.Z, q))
  let rx b th q = add b (Gate.One_q (Gate.Rx th, q))
  let rz b th q = add b (Gate.One_q (Gate.Rz th, q))
  let cx b a q = add b (Gate.Cx (a, q))
  let cz b a q = add b (Gate.Cz (a, q))
  let rzz b th a q = add b (Gate.Rzz (th, a, q))
  let swap b a q = add b (Gate.Swap (a, q))
  let measure b q c = add b (Gate.Measure (q, c))
  let reset b q = add b (Gate.Reset q)
  let if_x b c q = add b (Gate.If_x (c, q))
  let barrier b qs = add b (Gate.Barrier qs)

  let build b : circuit =
    number ~num_qubits:b.num_qubits ~num_clbits:b.num_clbits b.kinds b.len
end
