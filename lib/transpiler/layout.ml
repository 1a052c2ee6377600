type t = { l2p : int array; p2l : int array }

let trivial device n =
  if n > Hardware.Device.num_qubits device then
    invalid_arg "Layout.trivial: device too small";
  let np = Hardware.Device.num_qubits device in
  let p2l = Array.make np (-1) in
  for l = 0 to n - 1 do
    p2l.(l) <- l
  done;
  { l2p = Array.init n Fun.id; p2l }

(* Interaction graph as an [nl * nl] adjacency byte matrix (an edge per
   distinct pair of wires some two-qubit gate couples) and a degree per
   wire. Logical qubits are placed in decreasing degree order, ties in
   index order (a stable sort); each goes to the first free physical
   qubit with the best score: its quality minus ten times its summed
   distance to the positions of its placed neighbours. *)
let initial device (circuit : Quantum.Circuit.t) =
  let nl = circuit.num_qubits in
  let np = Hardware.Device.num_qubits device in
  if nl > np then invalid_arg "Layout.initial: device too small";
  let adj = Bytes.make (nl * nl) '\000' in
  let degree = Array.make nl 0 in
  Array.iter
    (fun (g : Quantum.Gate.t) ->
      match g.kind with
      | Quantum.Gate.Cx (a, b)
      | Quantum.Gate.Cz (a, b)
      | Quantum.Gate.Rzz (_, a, b)
      | Quantum.Gate.Swap (a, b) ->
        if a <> b && Bytes.get adj ((a * nl) + b) = '\000' then begin
          Bytes.set adj ((a * nl) + b) '\001';
          Bytes.set adj ((b * nl) + a) '\001';
          degree.(a) <- degree.(a) + 1;
          degree.(b) <- degree.(b) + 1
        end
      | _ -> ())
    circuit.gates;
  let order = Array.init nl Fun.id in
  Array.stable_sort (fun a b -> compare degree.(b) degree.(a)) order;
  let l2p = Array.make nl (-1) in
  let p2l = Array.make np (-1) in
  let dist = device.Hardware.Device.dist in
  let quality = device.Hardware.Device.quality in
  let placed = Array.make (max 1 nl) 0 in
  Array.iter
    (fun l ->
      let n_placed = ref 0 in
      for m = 0 to nl - 1 do
        if Bytes.get adj ((l * nl) + m) <> '\000' && l2p.(m) >= 0 then begin
          placed.(!n_placed) <- l2p.(m);
          incr n_placed
        end
      done;
      let best = ref (-1) and best_score = ref neg_infinity in
      for p = 0 to np - 1 do
        if p2l.(p) = -1 then begin
          let row = dist.(p) in
          let dist_penalty = ref 0 in
          for k = 0 to !n_placed - 1 do
            dist_penalty := !dist_penalty + row.(placed.(k))
          done;
          let s = quality.(p) -. (10. *. float_of_int !dist_penalty) in
          if s > !best_score then begin
            best := p;
            best_score := s
          end
        end
      done;
      l2p.(l) <- !best;
      p2l.(!best) <- l)
    order;
  { l2p; p2l }

let copy t = { l2p = Array.copy t.l2p; p2l = Array.copy t.p2l }

let apply_swap t p1 p2 =
  let l1 = t.p2l.(p1) and l2 = t.p2l.(p2) in
  t.p2l.(p1) <- l2;
  t.p2l.(p2) <- l1;
  if l1 >= 0 then t.l2p.(l1) <- p2;
  if l2 >= 0 then t.l2p.(l2) <- p1
