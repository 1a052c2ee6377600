type config = {
  min_qubits : int;
  max_qubits : int;
  min_gates : int;
  max_gates : int;
  w_one_q : int;
  w_two_q : int;
  w_measure : int;
  w_reset : int;
  w_if_x : int;
  w_barrier : int;
  p_share_clbit : float;
  p_measure_tail : float;
}

let default =
  {
    min_qubits = 2;
    max_qubits = 6;
    min_gates = 4;
    max_gates = 40;
    w_one_q = 8;
    w_two_q = 8;
    w_measure = 3;
    w_reset = 1;
    w_if_x = 2;
    w_barrier = 1;
    p_share_clbit = 0.25;
    p_measure_tail = 0.6;
  }

let one_q_gate rng =
  (* Angles are free floats on purpose: the QASM printer truncates them,
     so the round-trip oracle must hold under truncation, not avoid it. *)
  let angle () = Exec.Prng.float rng (4. *. Float.pi) -. (2. *. Float.pi) in
  match Exec.Prng.int rng 13 with
  | 0 -> Quantum.Gate.H
  | 1 -> Quantum.Gate.X
  | 2 -> Quantum.Gate.Y
  | 3 -> Quantum.Gate.Z
  | 4 -> Quantum.Gate.S
  | 5 -> Quantum.Gate.Sdg
  | 6 -> Quantum.Gate.T
  | 7 -> Quantum.Gate.Tdg
  | 8 -> Quantum.Gate.Sx
  | 9 -> Quantum.Gate.Rx (angle ())
  | 10 -> Quantum.Gate.Ry (angle ())
  | 11 -> Quantum.Gate.Rz (angle ())
  | _ -> Quantum.Gate.Phase (angle ())

let circuit cfg rng =
  let n = cfg.min_qubits + Exec.Prng.int rng (cfg.max_qubits - cfg.min_qubits + 1) in
  let num_clbits = n in
  let gates = cfg.min_gates + Exec.Prng.int rng (cfg.max_gates - cfg.min_gates + 1) in
  let written = Array.make num_clbits false in
  let any_written () = Array.exists Fun.id written in
  let qubit () = Exec.Prng.int rng n in
  let distinct_pair () =
    let a = qubit () in
    let b = (a + 1 + Exec.Prng.int rng (n - 1)) mod n in
    (a, b)
  in
  let measure () =
    let q = qubit () in
    let already = Array.to_list (Array.mapi (fun c w -> (c, w)) written)
                  |> List.filter_map (fun (c, w) -> if w then Some c else None) in
    let cb =
      if already <> [] && Exec.Prng.float rng 1. < cfg.p_share_clbit then
        List.nth already (Exec.Prng.int rng (List.length already))
      else Exec.Prng.int rng num_clbits
    in
    written.(cb) <- true;
    Quantum.Gate.Measure (q, cb)
  in
  let gate () =
    match
      Exec.Prng.weighted rng
        [
          (cfg.w_one_q, `One_q);
          (cfg.w_two_q, `Two_q);
          (cfg.w_measure, `Measure);
          (cfg.w_reset, `Reset);
          (cfg.w_if_x, `If_x);
          (cfg.w_barrier, `Barrier);
        ]
    with
    | `One_q -> Quantum.Gate.One_q (one_q_gate rng, qubit ())
    | `Two_q ->
      let a, b = distinct_pair () in
      (match Exec.Prng.int rng 4 with
       | 0 -> Quantum.Gate.Cx (a, b)
       | 1 -> Quantum.Gate.Cz (a, b)
       | 2 -> Quantum.Gate.Swap (a, b)
       | _ -> Quantum.Gate.Rzz (Exec.Prng.float rng Float.pi, a, b))
    | `Measure -> measure ()
    | `Reset -> Quantum.Gate.Reset (qubit ())
    | `If_x ->
      if not (any_written ()) then Quantum.Gate.One_q (one_q_gate rng, qubit ())
      else begin
        let candidates =
          Array.to_list (Array.mapi (fun c w -> (c, w)) written)
          |> List.filter_map (fun (c, w) -> if w then Some c else None)
        in
        let cb = List.nth candidates (Exec.Prng.int rng (List.length candidates)) in
        Quantum.Gate.If_x (cb, qubit ())
      end
    | `Barrier ->
      let width = 1 + Exec.Prng.int rng (min 4 n) in
      let start = Exec.Prng.int rng n in
      Quantum.Gate.Barrier
        (List.init width (fun i -> (start + i) mod n) |> List.sort_uniq compare)
  in
  let body = List.init gates (fun _ -> gate ()) in
  let c = Quantum.Circuit.of_kinds ~num_qubits:n ~num_clbits body in
  if Exec.Prng.float rng 1. < cfg.p_measure_tail then Quantum.Circuit.measure_all c
  else c
