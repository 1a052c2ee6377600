(* Reference canonical writer: the [Printf]-based [Circuit.canon_buf]
   that the in-place writer replaced, kept verbatim as a test oracle
   (only this header and the [open] are new). The library's writer must
   append the same bytes for every circuit, so every digest, cache key
   and golden digest stays the same. *)

open Quantum
open Circuit

let canon_buf b c =
  Buffer.add_string b
    (Printf.sprintf "circuit/1 q=%d c=%d\n" c.num_qubits c.num_clbits);
  let angle th = Printf.sprintf "%Lx" (Int64.bits_of_float th) in
  let one_q : Gate.one_q -> string = function
    | H -> "h" | X -> "x" | Y -> "y" | Z -> "z" | S -> "s" | Sdg -> "sdg"
    | T -> "t" | Tdg -> "tdg" | Sx -> "sx"
    | Rx th -> "rx " ^ angle th
    | Ry th -> "ry " ^ angle th
    | Rz th -> "rz " ^ angle th
    | Phase th -> "p " ^ angle th
  in
  Array.iter
    (fun (g : Gate.t) ->
      (match g.Gate.kind with
       | Gate.One_q (u, q) -> Buffer.add_string b (Printf.sprintf "%s %d" (one_q u) q)
       | Gate.Cx (a, q) -> Buffer.add_string b (Printf.sprintf "cx %d %d" a q)
       | Gate.Cz (a, q) -> Buffer.add_string b (Printf.sprintf "cz %d %d" a q)
       | Gate.Rzz (th, a, q) ->
         Buffer.add_string b (Printf.sprintf "rzz %s %d %d" (angle th) a q)
       | Gate.Swap (a, q) -> Buffer.add_string b (Printf.sprintf "swap %d %d" a q)
       | Gate.Measure (q, cb) ->
         Buffer.add_string b (Printf.sprintf "measure %d %d" q cb)
       | Gate.Reset q -> Buffer.add_string b (Printf.sprintf "reset %d" q)
       | Gate.If_x (cb, q) ->
         Buffer.add_string b (Printf.sprintf "if_x %d %d" cb q)
       | Gate.Barrier qs ->
         Buffer.add_string b
           ("barrier " ^ String.concat " " (List.map string_of_int qs)));
      Buffer.add_char b '\n')
    c.gates
