let two_pi = 2. *. Float.pi

(* Rotations are 4*pi periodic; anything that lands on a multiple of
   4*pi (or 2*pi, which differs by a global phase only) is an identity
   for measurement statistics. *)
let trivial_angle th =
  let m = Float.rem th two_pi in
  Float.abs m < 1e-12 || Float.abs (Float.abs m -. two_pi) < 1e-12

(* The unordered wire pairs {a1, b1} and {a2, b2} are equal; compares
   ints, not tuples. *)
let same_wires (a1 : int) b1 a2 b2 = (a1 = a2 && b1 = b2) || (a1 = b2 && b1 = a2)

let inverse_pair a b =
  match (a, b) with
  | Gate.One_q (ga, q), Gate.One_q (gb, q') when q = q' -> (
    match (ga, gb) with
    | Gate.H, Gate.H | Gate.X, Gate.X | Gate.Y, Gate.Y | Gate.Z, Gate.Z -> true
    | Gate.S, Gate.Sdg | Gate.Sdg, Gate.S -> true
    | Gate.T, Gate.Tdg | Gate.Tdg, Gate.T -> true
    | _ -> false)
  | Gate.Cx (c1, t1), Gate.Cx (c2, t2) -> c1 = c2 && t1 = t2
  | Gate.Cz (a1, b1), Gate.Cz (a2, b2) | Gate.Swap (a1, b1), Gate.Swap (a2, b2)
    ->
    same_wires a1 b1 a2 b2
  | _ -> false

(* [fuse a b] is [Some kind] when b absorbs into a as a same-axis
   rotation; the result may itself be trivial (checked by the caller). *)
let fuse a b =
  match (a, b) with
  | Gate.One_q (Gate.Rz t1, q), Gate.One_q (Gate.Rz t2, q') when q = q' ->
    Some (Gate.One_q (Gate.Rz (t1 +. t2), q))
  | Gate.One_q (Gate.Rx t1, q), Gate.One_q (Gate.Rx t2, q') when q = q' ->
    Some (Gate.One_q (Gate.Rx (t1 +. t2), q))
  | Gate.One_q (Gate.Ry t1, q), Gate.One_q (Gate.Ry t2, q') when q = q' ->
    Some (Gate.One_q (Gate.Ry (t1 +. t2), q))
  | Gate.One_q (Gate.Phase t1, q), Gate.One_q (Gate.Phase t2, q') when q = q' ->
    Some (Gate.One_q (Gate.Phase (t1 +. t2), q))
  | Gate.Rzz (t1, a1, b1), Gate.Rzz (t2, a2, b2)
    when same_wires a1 b1 a2 b2 ->
    Some (Gate.Rzz (t1 +. t2, a1, b1))
  | _ -> None

let is_trivial = function
  | Gate.One_q ((Gate.Rz th | Gate.Rx th | Gate.Ry th | Gate.Phase th), _)
  | Gate.Rzz (th, _, _) ->
    trivial_angle th
  | _ -> false

(* The wires of a cancellable gate (one-qubit or two-qubit unitaries);
   [wire_b] is [-1] for a one-qubit gate. A fused kind keeps its wires. *)
let wire_a = function
  | Gate.One_q (_, q) -> q
  | Gate.Cx (a, _) | Gate.Cz (a, _) | Gate.Rzz (_, a, _) | Gate.Swap (a, _) -> a
  | Gate.Measure _ | Gate.Reset _ | Gate.If_x _ | Gate.Barrier _ -> -1

let wire_b = function
  | Gate.Cx (_, b) | Gate.Cz (_, b) | Gate.Rzz (_, _, b) | Gate.Swap (_, b) -> b
  | Gate.One_q _ | Gate.Measure _ | Gate.Reset _ | Gate.If_x _ | Gate.Barrier _
    ->
    -1

(* One pass over the live gates of [kinds]. [top.(q)] is wire [q]'s
   top-of-stack gate index (-1 none, -2 a dynamic/barrier block: no
   cancellation across it); [prev_a]/[prev_b] save the tops a gate's
   push replaced, so a cancellation can restore them. A fusion rewrites
   the surviving gate's kind in place. Returns whether anything changed;
   allocates only fused kinds. *)
let peephole_pass kinds alive top prev_a prev_b =
  Array.fill top 0 (Array.length top) (-1);
  let changed = ref false in
  let drop i =
    Bytes.set alive i '\000';
    changed := true
  in
  let cancel_with j i =
    (* Drop both gates and restore j's saved predecessors. *)
    drop j;
    drop i;
    top.(wire_a kinds.(j)) <- prev_a.(j);
    let b = wire_b kinds.(j) in
    if b >= 0 then top.(b) <- prev_b.(j)
  in
  for i = 0 to Array.length kinds - 1 do
    if Bytes.get alive i <> '\000' then
      match kinds.(i) with
      | Gate.Measure (q, _) | Gate.Reset q | Gate.If_x (_, q) -> top.(q) <- -2
      | Gate.Barrier qs -> List.iter (fun q -> top.(q) <- -2) qs
      | kind ->
        let a = wire_a kind and b = wire_b kind in
        (* The candidate predecessor must be the top on every wire. *)
        let j =
          let t = top.(a) in
          if t >= 0 && (b < 0 || top.(b) = t) then t else -1
        in
        if j >= 0 && inverse_pair kinds.(j) kind then cancel_with j i
        else
          match if j >= 0 then fuse kinds.(j) kind else None with
          | Some fused when is_trivial fused -> cancel_with j i
          | Some fused ->
            kinds.(j) <- fused;
            drop i
          | None when is_trivial kind -> drop i
          | None ->
            (* Push: save the tops this gate covers. *)
            prev_a.(i) <- top.(a);
            if b >= 0 then prev_b.(i) <- top.(b);
            top.(a) <- i;
            if b >= 0 then top.(b) <- i
  done;
  !changed

(* The passes run over one kind array with an alive byte per gate until
   one changes nothing; the circuit is built once, from the live kinds. *)
let peephole (c : Circuit.t) =
  let n = Array.length c.Circuit.gates in
  let kinds = Array.map (fun g -> g.Gate.kind) c.Circuit.gates in
  let alive = Bytes.make n '\001' in
  let top = Array.make (max 1 c.Circuit.num_qubits) (-1) in
  let prev_a = Array.make n (-1) and prev_b = Array.make n (-1) in
  if not (peephole_pass kinds alive top prev_a prev_b) then c
  else begin
    while peephole_pass kinds alive top prev_a prev_b do
      ()
    done;
    let live = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get alive i <> '\000' then begin
        kinds.(!live) <- kinds.(i);
        incr live
      end
    done;
    Circuit.of_kind_array ~num_qubits:c.Circuit.num_qubits
      ~num_clbits:c.Circuit.num_clbits (Array.sub kinds 0 !live)
  end

(* loc.(w) is where wire w's state lives once SWAPs are dropped. After
   Swap (a, b) the original wire a holds what b held, so the elided
   location of a becomes the old location of b and vice versa. *)
let elide_swaps (c : Circuit.t) =
  let loc = Array.init (max 1 c.Circuit.num_qubits) Fun.id in
  let kinds =
    List.filter_map
      (fun (g : Gate.t) ->
        match g.Gate.kind with
        | Gate.Swap (a, b) ->
          let t = loc.(a) in
          loc.(a) <- loc.(b);
          loc.(b) <- t;
          None
        | k -> Some (Gate.map_qubits (fun q -> loc.(q)) k))
      (Array.to_list c.Circuit.gates)
  in
  Circuit.of_kinds ~num_qubits:c.Circuit.num_qubits
    ~num_clbits:c.Circuit.num_clbits kinds
