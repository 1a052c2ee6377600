(* Reference peephole optimizer: the implementation that
   [Quantum.Optimize.peephole] replaced, kept verbatim as a test oracle.
   Each pass keeps an [option] per gate and a list of saved wire tops
   per pushed gate, and rebuilds the circuit from a list; the flat pass
   must return the same circuit. *)

let two_pi = 2. *. Float.pi

(* Rotations are 4*pi periodic; anything that lands on a multiple of
   4*pi (or 2*pi, which differs by a global phase only) is an identity
   for measurement statistics. *)
let trivial_angle th =
  let m = Float.rem th two_pi in
  Float.abs m < 1e-12 || Float.abs (Float.abs m -. two_pi) < 1e-12

let inverse_pair a b =
  match (a, b) with
  | Quantum.Gate.One_q (ga, q), Quantum.Gate.One_q (gb, q') when q = q' -> (
    match (ga, gb) with
    | Quantum.Gate.H, Quantum.Gate.H | Quantum.Gate.X, Quantum.Gate.X | Quantum.Gate.Y, Quantum.Gate.Y | Quantum.Gate.Z, Quantum.Gate.Z -> true
    | Quantum.Gate.S, Quantum.Gate.Sdg | Quantum.Gate.Sdg, Quantum.Gate.S -> true
    | Quantum.Gate.T, Quantum.Gate.Tdg | Quantum.Gate.Tdg, Quantum.Gate.T -> true
    | _ -> false)
  | Quantum.Gate.Cx (c1, t1), Quantum.Gate.Cx (c2, t2) -> c1 = c2 && t1 = t2
  | Quantum.Gate.Cz (a1, b1), Quantum.Gate.Cz (a2, b2) ->
    (a1, b1) = (a2, b2) || (a1, b1) = (b2, a2)
  | Quantum.Gate.Swap (a1, b1), Quantum.Gate.Swap (a2, b2) ->
    (a1, b1) = (a2, b2) || (a1, b1) = (b2, a2)
  | _ -> false

(* [fuse a b] is [Some kind] when b absorbs into a as a same-axis
   rotation; the result may itself be trivial (checked by the caller). *)
let fuse a b =
  match (a, b) with
  | Quantum.Gate.One_q (Quantum.Gate.Rz t1, q), Quantum.Gate.One_q (Quantum.Gate.Rz t2, q') when q = q' ->
    Some (Quantum.Gate.One_q (Quantum.Gate.Rz (t1 +. t2), q))
  | Quantum.Gate.One_q (Quantum.Gate.Rx t1, q), Quantum.Gate.One_q (Quantum.Gate.Rx t2, q') when q = q' ->
    Some (Quantum.Gate.One_q (Quantum.Gate.Rx (t1 +. t2), q))
  | Quantum.Gate.One_q (Quantum.Gate.Ry t1, q), Quantum.Gate.One_q (Quantum.Gate.Ry t2, q') when q = q' ->
    Some (Quantum.Gate.One_q (Quantum.Gate.Ry (t1 +. t2), q))
  | Quantum.Gate.One_q (Quantum.Gate.Phase t1, q), Quantum.Gate.One_q (Quantum.Gate.Phase t2, q') when q = q' ->
    Some (Quantum.Gate.One_q (Quantum.Gate.Phase (t1 +. t2), q))
  | Quantum.Gate.Rzz (t1, a1, b1), Quantum.Gate.Rzz (t2, a2, b2)
    when (a1, b1) = (a2, b2) || (a1, b1) = (b2, a2) ->
    Some (Quantum.Gate.Rzz (t1 +. t2, a1, b1))
  | _ -> None

let is_trivial = function
  | Quantum.Gate.One_q ((Quantum.Gate.Rz th | Quantum.Gate.Rx th | Quantum.Gate.Ry th | Quantum.Gate.Phase th), _)
  | Quantum.Gate.Rzz (th, _, _) ->
    trivial_angle th
  | _ -> false

let peephole_once (c : Quantum.Circuit.t) =
  let n = Array.length c.Quantum.Circuit.gates in
  let kept : Quantum.Gate.kind option array =
    Array.map (fun g -> Some g.Quantum.Gate.kind) c.Quantum.Circuit.gates
  in
  (* Per-wire top-of-stack gate index, with per-gate saved predecessors so
     a cancellation can restore the previous top. -2 marks a dynamic/
     barrier block (no cancellation across it). *)
  let top = Array.make (max 1 c.Quantum.Circuit.num_qubits) (-1) in
  let prevs = Array.make n [] in
  let changed = ref false in
  for i = 0 to n - 1 do
    match kept.(i) with
    | None -> ()
    | Some kind ->
      let qs = Quantum.Gate.qubits kind in
      if Quantum.Gate.is_barrier kind || Quantum.Gate.is_dynamic kind then
        List.iter (fun q -> top.(q) <- -2) qs
      else begin
        (* The candidate predecessor must be the top on every wire. *)
        let j =
          match qs with
          | [] -> -1
          | q :: rest ->
            let t = top.(q) in
            if t >= 0 && List.for_all (fun q' -> top.(q') = t) rest then t
            else -1
        in
        let cancel_with j =
          (* Drop both gates and restore j's saved predecessors. *)
          kept.(j) <- None;
          kept.(i) <- None;
          changed := true;
          List.iter (fun (q, p) -> top.(q) <- p) prevs.(j)
        in
        let push () =
          prevs.(i) <- List.map (fun q -> (q, top.(q))) qs;
          List.iter (fun q -> top.(q) <- i) qs
        in
        let predecessor_kind j =
          match kept.(j) with Some k -> k | None -> assert false
        in
        if j >= 0 && inverse_pair (predecessor_kind j) kind then cancel_with j
        else if j >= 0 then begin
          match fuse (predecessor_kind j) kind with
          | Some fused ->
            changed := true;
            if is_trivial fused then cancel_with j
            else begin
              kept.(j) <- Some fused;
              kept.(i) <- None
            end
          | None -> if is_trivial kind then begin
              kept.(i) <- None;
              changed := true
            end
            else push ()
        end
        else if is_trivial kind then begin
          kept.(i) <- None;
          changed := true
        end
        else push ()
      end
  done;
  let kinds = List.filter_map Fun.id (Array.to_list kept) in
  ( Quantum.Circuit.of_kinds ~num_qubits:c.Quantum.Circuit.num_qubits
      ~num_clbits:c.Quantum.Circuit.num_clbits kinds,
    !changed )

let rec peephole c =
  let c', changed = peephole_once c in
  if changed then peephole c' else c'
