type pauli = I | X | Y | Z
type term = { coeff : float; paulis : (int * pauli) list }
type t = term list

let zz ?(coeff = 1.) a b = { coeff; paulis = [ (a, Z); (b, Z) ] }
let x_ ?(coeff = 1.) q = { coeff; paulis = [ (q, X) ] }
let z_ ?(coeff = 1.) q = { coeff; paulis = [ (q, Z) ] }

let ising_chain ~n ~j ~g =
  List.init (n - 1) (fun i -> zz ~coeff:(-.j) i (i + 1))
  @ List.init n (fun i -> x_ ~coeff:(-.g) i)

(* Non-identity requirements of a term. *)
let requirements term =
  List.filter (fun (_, p) -> p <> I) term.paulis

let compatible basis term =
  List.for_all
    (fun (q, p) ->
      match List.assoc_opt q basis with None -> true | Some p' -> p = p')
    (requirements term)

let extend basis term =
  List.fold_left
    (fun acc (q, p) -> if List.mem_assoc q acc then acc else (q, p) :: acc)
    basis (requirements term)

let measurement_bases obs =
  (* Greedy first-fit grouping. *)
  List.fold_left
    (fun groups term ->
      let rec place = function
        | [] -> [ (extend [] term, [ term ]) ]
        | (basis, members) :: rest when compatible basis term ->
          (extend basis term, term :: members) :: rest
        | g :: rest -> g :: place rest
      in
      place groups)
    [] obs

(* Append basis rotations + measurements to the preparation circuit. *)
let measured_circuit (prepare : Quantum.Circuit.t) basis =
  let nq = prepare.Quantum.Circuit.num_qubits in
  let kinds =
    Array.to_list (Array.map (fun g -> g.Quantum.Gate.kind) prepare.Quantum.Circuit.gates)
    @ List.concat_map
        (fun (q, p) ->
          let rot =
            match p with
            | X -> [ Quantum.Gate.One_q (Quantum.Gate.H, q) ]
            | Y ->
              [
                Quantum.Gate.One_q (Quantum.Gate.Sdg, q);
                Quantum.Gate.One_q (Quantum.Gate.H, q);
              ]
            | Z | I -> []
          in
          rot @ [ Quantum.Gate.Measure (q, q) ])
        basis
  in
  Quantum.Circuit.of_kinds ~num_qubits:nq
    ~num_clbits:(max nq prepare.Quantum.Circuit.num_clbits)
    kinds

let term_parity term k =
  List.fold_left
    (fun acc (q, p) ->
      if p = I then acc
      else if (k lsr q) land 1 = 1 then -.acc
      else acc)
    1. term.paulis

let expectation ~seed ~shots ~prepare obs =
  List.fold_left
    (fun acc (basis, members) ->
      let counts = Executor.run ~seed ~shots (measured_circuit prepare basis) in
      acc
      +. List.fold_left
           (fun acc term ->
             acc
             +. (term.coeff *. Counts.expectation counts (term_parity term)))
           0. members)
    0. (measurement_bases obs)

let expectation_exact ~prepare obs =
  if
    Array.exists
      (fun g -> Quantum.Gate.is_dynamic g.Quantum.Gate.kind)
      prepare.Quantum.Circuit.gates
  then invalid_arg "Observable.expectation_exact: dynamic preparation";
  List.fold_left
    (fun acc (basis, members) ->
      (* Rebuild the rotated state and read the full distribution. *)
      let st = State.init prepare.Quantum.Circuit.num_qubits in
      Array.iter
        (fun g -> State.apply_unitary st g.Quantum.Gate.kind)
        prepare.Quantum.Circuit.gates;
      List.iter
        (fun (q, p) ->
          match p with
          | X -> State.apply_one_q st Quantum.Gate.H q
          | Y ->
            State.apply_one_q st Quantum.Gate.Sdg q;
            State.apply_one_q st Quantum.Gate.H q
          | Z | I -> ())
        basis;
      let probs = State.probabilities st in
      acc
      +. List.fold_left
           (fun acc term ->
             let e = ref 0. in
             Array.iteri (fun k p -> e := !e +. (p *. term_parity term k)) probs;
             acc +. (term.coeff *. !e))
           0. members)
    0. (measurement_bases obs)
