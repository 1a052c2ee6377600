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

type scratch = {
  adj : Quantum.Scratch.bytes;
  degree : int Quantum.Scratch.t;
  count : int Quantum.Scratch.t;
  order : int Quantum.Scratch.t;
  placed : int Quantum.Scratch.t;
  l2p_buf : int Quantum.Scratch.t;
  p2l_buf : int Quantum.Scratch.t;
}

let scratch () =
  let ints init = Quantum.Scratch.make init in
  {
    adj = Quantum.Scratch.bytes ();
    degree = ints 0;
    count = ints 0;
    order = ints 0;
    placed = ints 0;
    l2p_buf = ints (-1);
    p2l_buf = ints (-1);
  }

(* Interaction graph as an [nl * nl] adjacency byte matrix (an edge per
   distinct pair of logical qubits some two-qubit gate couples) and a
   degree per logical qubit. Logical qubits are placed in decreasing
   degree order, ties in index order (a counting sort, stable); each
   goes to the first free physical qubit with the best score: its
   quality minus ten times its summed distance to the positions of its
   placed neighbours. Every buffer element read is written first. *)
let initial_in s device (circuit : Quantum.Circuit.t) ~wire ~width:nl =
  let np = Hardware.Device.num_qubits device in
  if nl > np then invalid_arg "Layout.initial: device too small";
  let adj = Quantum.Scratch.get_bytes s.adj (nl * nl) in
  Bytes.fill adj 0 (nl * nl) '\000';
  let degree = Quantum.Scratch.get s.degree nl in
  Array.fill degree 0 nl 0;
  Array.iter
    (fun (g : Quantum.Gate.t) ->
      match g.kind with
      | Quantum.Gate.Cx (a, b)
      | Quantum.Gate.Cz (a, b)
      | Quantum.Gate.Rzz (_, a, b)
      | Quantum.Gate.Swap (a, b) ->
        let a = wire.(a) and b = wire.(b) in
        if a <> b && Bytes.get adj ((a * nl) + b) = '\000' then begin
          Bytes.set adj ((a * nl) + b) '\001';
          Bytes.set adj ((b * nl) + a) '\001';
          degree.(a) <- degree.(a) + 1;
          degree.(b) <- degree.(b) + 1
        end
      | _ -> ())
    circuit.gates;
  (* A degree is below [nl]; [count.(d)] becomes the first slot of
     degree [d], the higher degrees first. *)
  let count = Quantum.Scratch.get s.count nl in
  Array.fill count 0 nl 0;
  for l = 0 to nl - 1 do
    count.(degree.(l)) <- count.(degree.(l)) + 1
  done;
  let next = ref 0 in
  for d = nl - 1 downto 0 do
    let c = count.(d) in
    count.(d) <- !next;
    next := !next + c
  done;
  let order = Quantum.Scratch.get s.order nl in
  for l = 0 to nl - 1 do
    let d = degree.(l) in
    order.(count.(d)) <- l;
    count.(d) <- count.(d) + 1
  done;
  let l2p = Quantum.Scratch.get s.l2p_buf nl in
  Array.fill l2p 0 nl (-1);
  let p2l = Quantum.Scratch.get s.p2l_buf np in
  Array.fill p2l 0 np (-1);
  let dist = device.Hardware.Device.dist in
  let quality = device.Hardware.Device.quality in
  let placed = Quantum.Scratch.get s.placed nl in
  for o = 0 to nl - 1 do
    let l = order.(o) in
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
    p2l.(!best) <- l
  done;
  { l2p; p2l }

let initial device (circuit : Quantum.Circuit.t) =
  let nl = circuit.num_qubits in
  initial_in (scratch ()) device circuit ~wire:(Array.init nl Fun.id) ~width:nl

let copy t = { l2p = Array.copy t.l2p; p2l = Array.copy t.p2l }

let apply_swap t p1 p2 =
  let l1 = t.p2l.(p1) and l2 = t.p2l.(p2) in
  t.p2l.(p1) <- l2;
  t.p2l.(p2) <- l1;
  if l1 >= 0 then t.l2p.(l1) <- p2;
  if l2 >= 0 then t.l2p.(l2) <- p1
