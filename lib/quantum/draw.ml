(* Layered ASCII rendering. Each gate is placed in the earliest layer after
   all gates on its wires; cells are fixed-width. The measure+conditional-X
   reuse idiom renders as the paper's double bar. *)

let cell_width = 7

let label_of kind ~q =
  match kind with
  | Gate.One_q (g, _) ->
    (match g with
     | Gate.H -> "H"
     | Gate.X -> "X"
     | Gate.Y -> "Y"
     | Gate.Z -> "Z"
     | Gate.S -> "S"
     | Gate.Sdg -> "Sdg"
     | Gate.T -> "T"
     | Gate.Tdg -> "Tdg"
     | Gate.Sx -> "SX"
     | Gate.Rx _ -> "RX"
     | Gate.Ry _ -> "RY"
     | Gate.Rz _ -> "RZ"
     | Gate.Phase _ -> "P")
  | Gate.Cx (c, _) -> if q = c then "*" else "+"
  | Gate.Cz _ -> "*"
  | Gate.Rzz _ -> "ZZ"
  | Gate.Swap _ -> "x"
  | Gate.Measure _ -> "M"
  | Gate.Reset _ -> "|0>"
  | Gate.If_x _ -> "||"
  | Gate.Barrier _ -> "|"

let to_string (c : Circuit.t) =
  let nq = c.num_qubits in
  let front = Array.make (max 1 nq) 0 in
  (* (layer, qubit) -> label *)
  let cells = Hashtbl.create 64 in
  let depth = ref 0 in
  Array.iter
    (fun g ->
      let k = g.Gate.kind in
      let qs = Gate.qubits k in
      match qs with
      | [] -> ()
      | _ ->
        let layer = List.fold_left (fun acc q -> max acc front.(q)) 0 qs in
        List.iter
          (fun q ->
            Hashtbl.replace cells (layer, q) (label_of k ~q);
            front.(q) <- layer + 1)
          qs;
        (* Vertical link for two-qubit gates. *)
        (match qs with
         | [ a; b ] when not (Gate.is_barrier k) ->
           let lo = min a b and hi = max a b in
           for q = lo + 1 to hi - 1 do
             if not (Hashtbl.mem cells (layer, q)) then
               Hashtbl.replace cells (layer, q) "|";
             front.(q) <- max front.(q) (layer + 1)
           done
         | _ -> ());
        if layer + 1 > !depth then depth := layer + 1)
    c.gates;
  let buf = Buffer.create 256 in
  for q = 0 to nq - 1 do
    Buffer.add_string buf (Printf.sprintf "q%-2d: " q);
    for layer = 0 to !depth - 1 do
      let s =
        match Hashtbl.find_opt cells (layer, q) with
        | Some s -> Printf.sprintf "[%s]" s
        | None -> "--"
      in
      let pad = cell_width - String.length s in
      let left = pad / 2 and right = pad - (pad / 2) in
      Buffer.add_string buf (String.make left '-');
      Buffer.add_string buf s;
      Buffer.add_string buf (String.make right '-')
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
