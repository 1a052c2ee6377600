type t = { n : int; re : float array; im : float array }

(* The dense vector is 2 * 8 bytes per amplitude: 26 qubits is already
   a 1 GiB state, so the ceiling is absolute regardless of the
   configured cap. *)
let hard_max_qubits = 26
let default_max_qubits = 24

let cap = Atomic.make default_max_qubits

let set_max_qubits n = Atomic.set cap (max 1 (min hard_max_qubits n))
let max_qubits () = Atomic.get cap

(* The cap check allocates nothing: an over-wide request is refused
   before the 2^n arrays exist, as a typed error rather than an OOM. *)
let make n =
  let c = Atomic.get cap in
  if n < 0 then
    Error
      (Guard.Error.v ~stage:"sim.state" ~site:"sim.alloc"
         (Printf.sprintf "negative width %d" n))
  else if n > c then
    Error
      (Guard.Error.v ~stage:"sim.state" ~site:"sim.alloc"
         (Printf.sprintf
            "%d qubits exceeds the simulator cap of %d (2^%d amplitudes)" n c n))
  else begin
    let size = 1 lsl n in
    let re = Array.make size 0. and im = Array.make size 0. in
    re.(0) <- 1.;
    Ok { n; re; im }
  end

let init n =
  match make n with
  | Ok st -> st
  | Error _ -> invalid_arg "State.init: unsupported width"

let num_qubits st = st.n

let copy st = { n = st.n; re = Array.copy st.re; im = Array.copy st.im }

let norm2 st =
  let acc = ref 0. in
  for i = 0 to Array.length st.re - 1 do
    acc := !acc +. (st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i))
  done;
  !acc

let probability st i = (st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i))

let probabilities st = Array.init (Array.length st.re) (probability st)

(* Apply the 2x2 complex matrix [[a b][c d]] to qubit q. *)
let apply_matrix st (ar, ai) (br, bi) (cr, ci) (dr, di) q =
  let bit = 1 lsl q in
  let size = Array.length st.re in
  let re = st.re and im = st.im in
  let i = ref 0 in
  while !i < size do
    if !i land bit = 0 then begin
      let i0 = !i and i1 = !i lor bit in
      let r0 = re.(i0) and m0 = im.(i0) in
      let r1 = re.(i1) and m1 = im.(i1) in
      re.(i0) <- (ar *. r0) -. (ai *. m0) +. (br *. r1) -. (bi *. m1);
      im.(i0) <- (ar *. m0) +. (ai *. r0) +. (br *. m1) +. (bi *. r1);
      re.(i1) <- (cr *. r0) -. (ci *. m0) +. (dr *. r1) -. (di *. m1);
      im.(i1) <- (cr *. m0) +. (ci *. r0) +. (dr *. m1) +. (di *. r1)
    end;
    incr i
  done

let inv_sqrt2 = 1. /. sqrt 2.

let apply_one_q st g q =
  let z = (0., 0.) and o = (1., 0.) in
  match g with
  | Quantum.Gate.H ->
    apply_matrix st (inv_sqrt2, 0.) (inv_sqrt2, 0.) (inv_sqrt2, 0.)
      (-.inv_sqrt2, 0.) q
  | Quantum.Gate.X -> apply_matrix st z o o z q
  | Quantum.Gate.Y -> apply_matrix st z (0., -1.) (0., 1.) z q
  | Quantum.Gate.Z -> apply_matrix st o z z (-1., 0.) q
  | Quantum.Gate.S -> apply_matrix st o z z (0., 1.) q
  | Quantum.Gate.Sdg -> apply_matrix st o z z (0., -1.) q
  | Quantum.Gate.T -> apply_matrix st o z z (inv_sqrt2, inv_sqrt2) q
  | Quantum.Gate.Tdg -> apply_matrix st o z z (inv_sqrt2, -.inv_sqrt2) q
  | Quantum.Gate.Sx ->
    apply_matrix st (0.5, 0.5) (0.5, -0.5) (0.5, -0.5) (0.5, 0.5) q
  | Quantum.Gate.Rx th ->
    let c = cos (th /. 2.) and s = sin (th /. 2.) in
    apply_matrix st (c, 0.) (0., -.s) (0., -.s) (c, 0.) q
  | Quantum.Gate.Ry th ->
    let c = cos (th /. 2.) and s = sin (th /. 2.) in
    apply_matrix st (c, 0.) (-.s, 0.) (s, 0.) (c, 0.) q
  | Quantum.Gate.Rz th ->
    let c = cos (th /. 2.) and s = sin (th /. 2.) in
    apply_matrix st (c, -.s) z z (c, s) q
  | Quantum.Gate.Phase th -> apply_matrix st o z z (cos th, sin th) q

let apply_cx st ctrl tgt =
  if ctrl = tgt then invalid_arg "State.apply_cx: equal operands";
  let cb = 1 lsl ctrl and tb = 1 lsl tgt in
  let re = st.re and im = st.im in
  let size = Array.length re in
  for i = 0 to size - 1 do
    (* Swap amplitudes of |..c=1,t=0..> and |..c=1,t=1..>, visiting each
       pair once via the t=0 member. *)
    if i land cb <> 0 && i land tb = 0 then begin
      let j = i lor tb in
      let r = re.(i) and m = im.(i) in
      re.(i) <- re.(j);
      im.(i) <- im.(j);
      re.(j) <- r;
      im.(j) <- m
    end
  done

let apply_cz st a b =
  if a = b then invalid_arg "State.apply_cz: equal operands";
  let ab = 1 lsl a and bb = 1 lsl b in
  for i = 0 to Array.length st.re - 1 do
    if i land ab <> 0 && i land bb <> 0 then begin
      st.re.(i) <- -.st.re.(i);
      st.im.(i) <- -.st.im.(i)
    end
  done

let apply_rzz st th a b =
  if a = b then invalid_arg "State.apply_rzz: equal operands";
  let ab = 1 lsl a and bb = 1 lsl b in
  let c = cos (th /. 2.) and s = sin (th /. 2.) in
  for i = 0 to Array.length st.re - 1 do
    (* Phase exp(-i th/2) when Z.Z eigenvalue is +1 (equal bits), else
       exp(+i th/2). *)
    let sign = if (i land ab <> 0) = (i land bb <> 0) then -.s else s in
    let r = st.re.(i) and m = st.im.(i) in
    st.re.(i) <- (c *. r) -. (sign *. m);
    st.im.(i) <- (c *. m) +. (sign *. r)
  done

let apply_swap st a b =
  if a = b then invalid_arg "State.apply_swap: equal operands";
  let ab = 1 lsl a and bb = 1 lsl b in
  for i = 0 to Array.length st.re - 1 do
    let ba = i land ab <> 0 and bbit = i land bb <> 0 in
    if ba && not bbit then begin
      let j = i lxor ab lxor bb in
      let r = st.re.(i) and m = st.im.(i) in
      st.re.(i) <- st.re.(j);
      st.im.(i) <- st.im.(j);
      st.re.(j) <- r;
      st.im.(j) <- m
    end
  done

let apply_unitary st kind =
  match kind with
  | Quantum.Gate.One_q (g, q) -> apply_one_q st g q
  | Quantum.Gate.Cx (a, b) -> apply_cx st a b
  | Quantum.Gate.Cz (a, b) -> apply_cz st a b
  | Quantum.Gate.Rzz (th, a, b) -> apply_rzz st th a b
  | Quantum.Gate.Swap (a, b) -> apply_swap st a b
  | Quantum.Gate.Barrier _ -> ()
  | Quantum.Gate.Measure _ | Quantum.Gate.Reset _ | Quantum.Gate.If_x _ ->
    invalid_arg "State.apply_unitary: not a unitary"

let apply_pauli st p q =
  match p with
  | 0 -> ()
  | 1 -> apply_one_q st Quantum.Gate.X q
  | 2 -> apply_one_q st Quantum.Gate.Y q
  | 3 -> apply_one_q st Quantum.Gate.Z q
  | _ -> invalid_arg "State.apply_pauli"

let prob_one st q =
  let bit = 1 lsl q in
  let acc = ref 0. in
  for i = 0 to Array.length st.re - 1 do
    if i land bit <> 0 then
      acc := !acc +. (st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i))
  done;
  !acc

let collapse st q outcome =
  let bit = 1 lsl q in
  let keep i = (i land bit <> 0) = (outcome = 1) in
  let acc = ref 0. in
  for i = 0 to Array.length st.re - 1 do
    if keep i then
      acc := !acc +. (st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i))
    else begin
      st.re.(i) <- 0.;
      st.im.(i) <- 0.
    end
  done;
  let scale = 1. /. sqrt (Float.max !acc 1e-300) in
  for i = 0 to Array.length st.re - 1 do
    if keep i then begin
      st.re.(i) <- st.re.(i) *. scale;
      st.im.(i) <- st.im.(i) *. scale
    end
  done

let measure rng st q =
  let p1 = prob_one st q in
  let outcome = if Random.State.float rng 1. < p1 then 1 else 0 in
  collapse st q outcome;
  outcome

let reset rng st q =
  let outcome = measure rng st q in
  if outcome = 1 then apply_one_q st Quantum.Gate.X q
