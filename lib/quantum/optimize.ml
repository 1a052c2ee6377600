let two_pi = 2. *. Float.pi

(* Rotations are 4*pi periodic; anything that lands on a multiple of
   4*pi (or 2*pi, which differs by a global phase only) is an identity
   for measurement statistics. *)
let trivial_angle th =
  let m = Float.rem th two_pi in
  Float.abs m < 1e-12 || Float.abs (Float.abs m -. two_pi) < 1e-12

let inverse_pair a b =
  match (a, b) with
  | Gate.One_q (ga, q), Gate.One_q (gb, q') when q = q' -> (
    match (ga, gb) with
    | Gate.H, Gate.H | Gate.X, Gate.X | Gate.Y, Gate.Y | Gate.Z, Gate.Z -> true
    | Gate.S, Gate.Sdg | Gate.Sdg, Gate.S -> true
    | Gate.T, Gate.Tdg | Gate.Tdg, Gate.T -> true
    | _ -> false)
  | Gate.Cx (c1, t1), Gate.Cx (c2, t2) -> c1 = c2 && t1 = t2
  | Gate.Cz (a1, b1), Gate.Cz (a2, b2) ->
    (a1, b1) = (a2, b2) || (a1, b1) = (b2, a2)
  | Gate.Swap (a1, b1), Gate.Swap (a2, b2) ->
    (a1, b1) = (a2, b2) || (a1, b1) = (b2, a2)
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
    when (a1, b1) = (a2, b2) || (a1, b1) = (b2, a2) ->
    Some (Gate.Rzz (t1 +. t2, a1, b1))
  | _ -> None

let is_trivial = function
  | Gate.One_q ((Gate.Rz th | Gate.Rx th | Gate.Ry th | Gate.Phase th), _)
  | Gate.Rzz (th, _, _) ->
    trivial_angle th
  | _ -> false

let peephole_once (c : Circuit.t) =
  let n = Array.length c.Circuit.gates in
  let kept : Gate.kind option array =
    Array.map (fun g -> Some g.Gate.kind) c.Circuit.gates
  in
  (* Per-wire top-of-stack gate index, with per-gate saved predecessors so
     a cancellation can restore the previous top. -2 marks a dynamic/
     barrier block (no cancellation across it). *)
  let top = Array.make (max 1 c.Circuit.num_qubits) (-1) in
  let prevs = Array.make n [] in
  let changed = ref false in
  for i = 0 to n - 1 do
    match kept.(i) with
    | None -> ()
    | Some kind ->
      let qs = Gate.qubits kind in
      if Gate.is_barrier kind || Gate.is_dynamic kind then
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
  ( Circuit.of_kinds ~num_qubits:c.Circuit.num_qubits
      ~num_clbits:c.Circuit.num_clbits kinds,
    !changed )

let rec peephole c =
  let c', changed = peephole_once c in
  if changed then peephole c' else c'

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
