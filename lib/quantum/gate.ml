type one_q =
  | H
  | X
  | Y
  | Z
  | S
  | Sdg
  | T
  | Tdg
  | Sx
  | Rx of float
  | Ry of float
  | Rz of float
  | Phase of float

type kind =
  | One_q of one_q * int
  | Cx of int * int
  | Cz of int * int
  | Rzz of float * int * int
  | Swap of int * int
  | Measure of int * int
  | Reset of int
  | If_x of int * int
  | Barrier of int list

type t = { id : int; kind : kind }

let qubits = function
  | One_q (_, q) | Reset q -> [ q ]
  | Cx (a, b) | Cz (a, b) | Rzz (_, a, b) | Swap (a, b) -> [ a; b ]
  | Measure (q, _) | If_x (_, q) -> [ q ]
  | Barrier qs -> qs

let clbits = function
  | Measure (_, c) | If_x (c, _) -> [ c ]
  | One_q _ | Cx _ | Cz _ | Rzz _ | Swap _ | Reset _ | Barrier _ -> []

let is_two_q = function
  | Cx _ | Cz _ | Rzz _ | Swap _ -> true
  | One_q _ | Measure _ | Reset _ | If_x _ | Barrier _ -> false

let is_dynamic = function
  | Measure _ | Reset _ | If_x _ -> true
  | One_q _ | Cx _ | Cz _ | Rzz _ | Swap _ | Barrier _ -> false

let is_barrier = function
  | Barrier _ -> true
  | One_q _ | Cx _ | Cz _ | Rzz _ | Swap _ | Measure _ | Reset _ | If_x _ ->
    false

(* A kind whose operands all map to themselves is returned as is, so a
   rename that moves nothing (most of a compaction, say) allocates
   nothing. *)
let map_qubits f k =
  match k with
  | One_q (g, q) ->
    let q' = f q in
    if q' = q then k else One_q (g, q')
  | Cx (a, b) ->
    let a' = f a and b' = f b in
    if a' = a && b' = b then k else Cx (a', b')
  | Cz (a, b) ->
    let a' = f a and b' = f b in
    if a' = a && b' = b then k else Cz (a', b')
  | Rzz (th, a, b) ->
    let a' = f a and b' = f b in
    if a' = a && b' = b then k else Rzz (th, a', b')
  | Swap (a, b) ->
    let a' = f a and b' = f b in
    if a' = a && b' = b then k else Swap (a', b')
  | Measure (q, c) ->
    let q' = f q in
    if q' = q then k else Measure (q', c)
  | Reset q ->
    let q' = f q in
    if q' = q then k else Reset q'
  | If_x (c, q) ->
    let q' = f q in
    if q' = q then k else If_x (c, q')
  | Barrier qs ->
    (* A barrier's wire list is a set: a non-injective rename (e.g. the
       reuse transform rewiring dst onto src) must not leave duplicates
       behind — a duplicated wire reads as a self-dependence downstream. *)
    Barrier (List.sort_uniq compare (List.map f qs))

let pp_one_q ppf = function
  | H -> Format.pp_print_string ppf "h"
  | X -> Format.pp_print_string ppf "x"
  | Y -> Format.pp_print_string ppf "y"
  | Z -> Format.pp_print_string ppf "z"
  | S -> Format.pp_print_string ppf "s"
  | Sdg -> Format.pp_print_string ppf "sdg"
  | T -> Format.pp_print_string ppf "t"
  | Tdg -> Format.pp_print_string ppf "tdg"
  | Sx -> Format.pp_print_string ppf "sx"
  | Rx th -> Format.fprintf ppf "rx(%.4f)" th
  | Ry th -> Format.fprintf ppf "ry(%.4f)" th
  | Rz th -> Format.fprintf ppf "rz(%.4f)" th
  | Phase th -> Format.fprintf ppf "p(%.4f)" th

let pp ppf { id = _; kind } =
  match kind with
  | One_q (g, q) -> Format.fprintf ppf "%a q[%d]" pp_one_q g q
  | Cx (a, b) -> Format.fprintf ppf "cx q[%d], q[%d]" a b
  | Cz (a, b) -> Format.fprintf ppf "cz q[%d], q[%d]" a b
  | Rzz (th, a, b) -> Format.fprintf ppf "rzz(%.4f) q[%d], q[%d]" th a b
  | Swap (a, b) -> Format.fprintf ppf "swap q[%d], q[%d]" a b
  | Measure (q, c) -> Format.fprintf ppf "measure q[%d] -> c[%d]" q c
  | Reset q -> Format.fprintf ppf "reset q[%d]" q
  | If_x (c, q) -> Format.fprintf ppf "if (c[%d]) x q[%d]" c q
  | Barrier qs ->
    Format.fprintf ppf "barrier %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf q -> Format.fprintf ppf "q[%d]" q))
      qs
