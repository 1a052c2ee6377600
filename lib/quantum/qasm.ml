(* The text is written straight into one buffer. Angles go through the
   primitive that [Printf]'s "%.6f" and "%.4f" call, so the output is
   the same byte for byte as formatting each gate with [Format]
   ([test/qasm_ref.ml] keeps that version). *)
external format_float : string -> float -> string = "caml_format_float"

let to_string (c : Circuit.t) =
  let b = Buffer.create (64 + (24 * Array.length c.gates)) in
  let s = Buffer.add_string b in
  let int n = s (Int.to_string n) in
  let q n =
    s "q[";
    int n;
    s "]"
  in
  let two name a t =
    s name;
    q a;
    s ", ";
    q t
  in
  let rotation name th =
    s name;
    s (format_float "%.4f" th);
    s ")"
  in
  s "OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[";
  int c.num_qubits;
  s "] q;\nbit[";
  int c.num_clbits;
  s "] c;\n";
  Array.iter
    (fun g ->
      (match g.Gate.kind with
       | Gate.One_q (u, n) ->
         (match u with
          | H -> s "h"
          | X -> s "x"
          | Y -> s "y"
          | Z -> s "z"
          | S -> s "s"
          | Sdg -> s "sdg"
          | T -> s "t"
          | Tdg -> s "tdg"
          | Sx -> s "sx"
          | Rx th -> rotation "rx(" th
          | Ry th -> rotation "ry(" th
          | Rz th -> rotation "rz(" th
          | Phase th -> rotation "p(" th);
         s " ";
         q n
       | Gate.Cx (a, t) -> two "cx " a t
       | Gate.Cz (a, t) -> two "cz " a t
       | Gate.Swap (a, t) -> two "swap " a t
       | Gate.Rzz (th, a, t) ->
         (* Not in stdgates, but round-trips through Qasm_parser; external
            consumers can macro-expand to cx-rz-cx. *)
         s "rzz(";
         s (format_float "%.6f" th);
         two ") " a t
       | Gate.Measure (n, cb) ->
         s "c[";
         int cb;
         s "] = measure ";
         q n
       | Gate.Reset n ->
         s "reset ";
         q n
       | Gate.If_x (cb, n) ->
         s "if (c[";
         int cb;
         s "]) x ";
         q n
       | Gate.Barrier qs ->
         s "barrier ";
         List.iteri
           (fun j n ->
             if j > 0 then s ", ";
             q n)
           qs);
      s ";\n")
    c.gates;
  Buffer.contents b
