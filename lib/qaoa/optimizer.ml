type trace = {
  best_params : float array;
  best_value : float;
  history : float list;
}

(* Wrap the objective to record the best-so-far value per evaluation. *)
let recorder f =
  let best = ref infinity in
  let best_x = ref [||] in
  let hist = ref [] in
  let evals = ref 0 in
  let call x =
    let v = f x in
    incr evals;
    if v < !best then begin
      best := v;
      best_x := Array.copy x
    end;
    hist := !best :: !hist;
    v
  in
  let result () =
    { best_params = !best_x; best_value = !best; history = List.rev !hist }
  in
  (call, evals, result)

(* Solve the n x n system [m] x = [b] by Gaussian elimination with partial
   pivoting; returns None on (near-)singularity. *)
let solve m b =
  let n = Array.length b in
  let a = Array.map Array.copy m in
  let b = Array.copy b in
  let ok = ref true in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
    done;
    if Float.abs a.(!pivot).(col) < 1e-12 then ok := false
    else begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!pivot);
      b.(!pivot) <- tb;
      for r = col + 1 to n - 1 do
        let factor = a.(r).(col) /. a.(col).(col) in
        for c = col to n - 1 do
          a.(r).(c) <- a.(r).(c) -. (factor *. a.(col).(c))
        done;
        b.(r) <- b.(r) -. (factor *. b.(col))
      done
    end
  done;
  if not !ok then None
  else begin
    let x = Array.make n 0. in
    for r = n - 1 downto 0 do
      let s = ref b.(r) in
      for c = r + 1 to n - 1 do
        s := !s -. (a.(r).(c) *. x.(c))
      done;
      x.(r) <- !s /. a.(r).(r)
    done;
    Some x
  end

let cobyla_lite ~max_evals ~init ~rho_start ~rho_end f =
  let n = Array.length init in
  let call, evals, result = recorder f in
  let pts =
    Array.init (n + 1) (fun i ->
        let p = Array.copy init in
        if i > 0 then p.(i - 1) <- p.(i - 1) +. rho_start;
        p)
  in
  let vals = Array.map call pts in
  let rho = ref rho_start in
  while !evals < max_evals && !rho > rho_end do
    (* Fit f(x) ~ c + g . (x - x0) through the simplex (x0 = vertex 0):
       n equations in the n gradient components. *)
    let x0 = pts.(0) and f0 = vals.(0) in
    let m =
      Array.init n (fun i ->
          Array.init n (fun d -> pts.(i + 1).(d) -. x0.(d)))
    in
    let b = Array.init n (fun i -> vals.(i + 1) -. f0) in
    (match solve m b with
     | None ->
       (* Degenerate simplex: re-seed around the best vertex. *)
       let best = ref 0 in
       Array.iteri (fun i v -> if v < vals.(!best) then best := i) vals;
       let bx = pts.(!best) in
       Array.iteri
         (fun i _ ->
           if i > 0 then begin
             let p = Array.copy bx in
             p.(i - 1) <- p.(i - 1) +. !rho;
             pts.(i) <- p;
             if !evals < max_evals then vals.(i) <- call p
           end)
         pts;
       pts.(0) <- Array.copy bx
     | Some g ->
       let gnorm =
         sqrt (Array.fold_left (fun acc gi -> acc +. (gi *. gi)) 0. g)
       in
       if gnorm < 1e-12 then rho := !rho /. 2.
       else begin
         (* Step to the linear-model minimizer on the trust sphere. *)
         let worst = ref 0 in
         Array.iteri (fun i v -> if v > vals.(!worst) then worst := i) vals;
         let best = ref 0 in
         Array.iteri (fun i v -> if v < vals.(!best) then best := i) vals;
         let candidate =
           Array.init n (fun d ->
               pts.(!best).(d) -. (!rho *. g.(d) /. gnorm))
         in
         let fc = call candidate in
         if fc < vals.(!worst) then begin
           pts.(!worst) <- candidate;
           vals.(!worst) <- fc
         end
         else rho := !rho /. 2.
       end)
  done;
  result ()
