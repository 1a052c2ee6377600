(* Reference QASM-3 emitter: [Quantum.Qasm.to_string] as it was when it
   formatted every gate through [Format], with the [Gate.pp] it called,
   kept verbatim as a test oracle (only this header, the [Quantum.]
   prefixes and the local [pp_one_q]/[gate_pp] names are new). The
   Buffer-based emitter must produce the same bytes. *)

open Quantum.Gate

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

let gate_pp ppf { id = _; kind } =
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

let pp ppf (c : Quantum.Circuit.t) =
  Format.fprintf ppf "OPENQASM 3.0;@.include \"stdgates.inc\";@.";
  Format.fprintf ppf "qubit[%d] q;@.bit[%d] c;@." c.num_qubits c.num_clbits;
  Array.iter
    (fun g ->
      match g.kind with
      | Measure (q, cb) -> Format.fprintf ppf "c[%d] = measure q[%d];@." cb q
      | If_x (cb, q) -> Format.fprintf ppf "if (c[%d]) x q[%d];@." cb q
      | Reset q -> Format.fprintf ppf "reset q[%d];@." q
      | Rzz (th, a, b) ->
        (* Not in stdgates, but round-trips through Qasm_parser; external
           consumers can macro-expand to cx-rz-cx. *)
        Format.fprintf ppf "rzz(%.6f) q[%d], q[%d];@." th a b
      | Barrier qs ->
        Format.fprintf ppf "barrier %s;@."
          (String.concat ", " (List.map (Printf.sprintf "q[%d]") qs))
      | _ -> Format.fprintf ppf "%a;@." gate_pp g)
    c.gates

let to_string c = Format.asprintf "%a" pp c
