(* [m] is the 2x2 scratch a rotation writes its matrix into before the
   kernel reads it, so no gate boxes a float; [passes] counts the kernel
   calls that read or write the whole vector. *)
type t = {
  n : int;
  re : float array;
  im : float array;
  m : float array;
  mutable passes : int;
}

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
    Ok { n; re; im; m = Array.make 8 0.; passes = 0 }
  end

let init n =
  match make n with
  | Ok st -> st
  | Error _ -> invalid_arg "State.init: unsupported width"

let num_qubits st = st.n

let passes st = st.passes

let clear st =
  st.passes <- st.passes + 1;
  Array.fill st.re 0 (Array.length st.re) 0.;
  Array.fill st.im 0 (Array.length st.im) 0.;
  st.re.(0) <- 1.

let blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "State.blit: width mismatch";
  dst.passes <- dst.passes + 1;
  Array.blit src.re 0 dst.re 0 (Array.length src.re);
  Array.blit src.im 0 dst.im 0 (Array.length src.im)

let norm2 st =
  let acc = ref 0. in
  for i = 0 to Array.length st.re - 1 do
    acc := !acc +. (st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i))
  done;
  !acc

let probability st i = (st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i))

let probabilities st = Array.init (Array.length st.re) (probability st)

(* Apply the 2x2 complex matrix [[a b][c d]], stored re/im-interleaved
   as [|ar; ai; br; bi; cr; ci; dr; di|], to qubit q. *)
let apply_matrix st m q =
  st.passes <- st.passes + 1;
  let ar = m.(0) and ai = m.(1) and br = m.(2) and bi = m.(3) in
  let cr = m.(4) and ci = m.(5) and dr = m.(6) and di = m.(7) in
  let bit = 1 lsl q in
  let size = Array.length st.re in
  let re = st.re and im = st.im in
  let i = ref 0 in
  while !i < size do
    if !i land bit = 0 then begin
      let i0 = !i and i1 = !i lor bit in
      let r0 = re.(i0) and m0 = im.(i0) in
      let r1 = re.(i1) and m1 = im.(i1) in
      re.(i0) <- (r0 *. ar) -. (m0 *. ai) +. (r1 *. br) -. (m1 *. bi);
      im.(i0) <- (m0 *. ar) +. (r0 *. ai) +. (m1 *. br) +. (r1 *. bi);
      re.(i1) <- (r0 *. cr) -. (m0 *. ci) +. (r1 *. dr) -. (m1 *. di);
      im.(i1) <- (m0 *. cr) +. (r0 *. ci) +. (m1 *. dr) +. (r1 *. di)
    end;
    incr i
  done

let inv_sqrt2 = 1. /. sqrt 2.

(* The fixed gates' matrices, built once. *)
let h_m = [| inv_sqrt2; 0.; inv_sqrt2; 0.; inv_sqrt2; 0.; -.inv_sqrt2; 0. |]
let x_m = [| 0.; 0.; 1.; 0.; 1.; 0.; 0.; 0. |]
let y_m = [| 0.; 0.; 0.; -1.; 0.; 1.; 0.; 0. |]
let z_m = [| 1.; 0.; 0.; 0.; 0.; 0.; -1.; 0. |]
let s_m = [| 1.; 0.; 0.; 0.; 0.; 0.; 0.; 1. |]
let sdg_m = [| 1.; 0.; 0.; 0.; 0.; 0.; 0.; -1. |]
let t_m = [| 1.; 0.; 0.; 0.; 0.; 0.; inv_sqrt2; inv_sqrt2 |]
let tdg_m = [| 1.; 0.; 0.; 0.; 0.; 0.; inv_sqrt2; -.inv_sqrt2 |]
let sx_m = [| 0.5; 0.5; 0.5; -0.5; 0.5; -0.5; 0.5; 0.5 |]

(* A rotation writes its matrix into the state's scratch. *)
let[@inline] rotation st ar ai br bi cr ci dr di =
  let m = st.m in
  m.(0) <- ar;
  m.(1) <- ai;
  m.(2) <- br;
  m.(3) <- bi;
  m.(4) <- cr;
  m.(5) <- ci;
  m.(6) <- dr;
  m.(7) <- di;
  m

let apply_one_q st g q =
  let m =
    match g with
    | Quantum.Gate.H -> h_m
    | Quantum.Gate.X -> x_m
    | Quantum.Gate.Y -> y_m
    | Quantum.Gate.Z -> z_m
    | Quantum.Gate.S -> s_m
    | Quantum.Gate.Sdg -> sdg_m
    | Quantum.Gate.T -> t_m
    | Quantum.Gate.Tdg -> tdg_m
    | Quantum.Gate.Sx -> sx_m
    | Quantum.Gate.Rx th ->
      let c = cos (th /. 2.) and s = sin (th /. 2.) in
      rotation st c 0. 0. (-.s) 0. (-.s) c 0.
    | Quantum.Gate.Ry th ->
      let c = cos (th /. 2.) and s = sin (th /. 2.) in
      rotation st c 0. (-.s) 0. s 0. c 0.
    | Quantum.Gate.Rz th ->
      let c = cos (th /. 2.) and s = sin (th /. 2.) in
      rotation st c (-.s) 0. 0. 0. 0. c s
    | Quantum.Gate.Phase th -> rotation st 1. 0. 0. 0. 0. 0. (cos th) (sin th)
  in
  apply_matrix st m q

let apply_cx st ctrl tgt =
  if ctrl = tgt then invalid_arg "State.apply_cx: equal operands";
  st.passes <- st.passes + 1;
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
  st.passes <- st.passes + 1;
  let ab = 1 lsl a and bb = 1 lsl b in
  for i = 0 to Array.length st.re - 1 do
    if i land ab <> 0 && i land bb <> 0 then begin
      st.re.(i) <- -.st.re.(i);
      st.im.(i) <- -.st.im.(i)
    end
  done

let apply_rzz st th a b =
  if a = b then invalid_arg "State.apply_rzz: equal operands";
  st.passes <- st.passes + 1;
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
  st.passes <- st.passes + 1;
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
  st.passes <- st.passes + 1;
  let bit = 1 lsl q in
  let acc = ref 0. in
  for i = 0 to Array.length st.re - 1 do
    if i land bit <> 0 then
      acc := !acc +. (st.re.(i) *. st.re.(i)) +. (st.im.(i) *. st.im.(i))
  done;
  !acc

let collapse st q outcome =
  st.passes <- st.passes + 1;
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

(* [wiring] holds the block's (qubit, clbit) pairs flat, in execution
   order, so a later measurement overwrites an earlier one on the same
   clbit. *)
let outcome ~creg ~wiring basis =
  let outcome = ref creg in
  let k = ref 0 in
  while !k < Array.length wiring do
    let bit = 1 lsl wiring.(!k + 1) in
    let cleared = !outcome land lnot bit in
    outcome := if basis land (1 lsl wiring.(!k)) <> 0 then cleared lor bit else cleared;
    k := !k + 2
  done;
  !outcome

let read_off st ~creg ~wiring ~weight dist =
  st.passes <- st.passes + 1;
  let re = st.re and im = st.im in
  for basis = 0 to Array.length re - 1 do
    let p = (re.(basis) *. re.(basis)) +. (im.(basis) *. im.(basis)) in
    if p > 1e-12 then begin
      let outcome = outcome ~creg ~wiring basis in
      dist.(outcome) <- dist.(outcome) +. (weight *. p)
    end
  done
