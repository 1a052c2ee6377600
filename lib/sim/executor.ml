let apply_gate rng st creg kind =
  match kind with
  | Quantum.Gate.Measure (q, c) ->
    let outcome = State.measure rng st q in
    creg := (!creg land lnot (1 lsl c)) lor (outcome lsl c)
  | Quantum.Gate.Reset q -> State.reset rng st q
  | Quantum.Gate.If_x (c, q) -> if !creg land (1 lsl c) <> 0 then State.apply_one_q st Quantum.Gate.X q
  | kind -> State.apply_unitary st kind

let run_shot rng (c : Quantum.Circuit.t) =
  Guard.Inject.hit "sim.shot";
  Guard.Budget.checkpoint ~stage:"sim.executor" ~site:"sim.shot";
  let st = State.init c.num_qubits in
  let creg = ref 0 in
  Array.iter (fun g -> apply_gate rng st creg g.Quantum.Gate.kind) c.gates;
  !creg

let compact c = fst (Quantum.Circuit.compact_qubits c)

(* Shots are sampled in fixed-size batches. Batch [i]'s RNG is a pure
   function of (seed, i) — via the splittable stream the pool hands each
   task — so the merged counts are byte-identical for every [jobs]
   value, and identical again to the jobs=1 run. The batch size is a
   constant, NOT derived from [jobs]: deriving it from [jobs] would
   change the stream partition and break the determinism contract. *)
let shots_per_batch = 256

let rng_of_prng prng =
  let word () = Int64.to_int (Int64.logand (Exec.Prng.bits64 prng) 0x3FFFFFFFL) in
  Random.State.make [| word (); word (); 0xe7ec |]

let run ?jobs ~seed ~shots circuit =
  let circuit = compact circuit in
  if shots <= 0 then Counts.create ~num_clbits:circuit.num_clbits
  else begin
    let batches = (shots + shots_per_batch - 1) / shots_per_batch in
    let sizes =
      List.init batches (fun i ->
          min shots_per_batch (shots - (i * shots_per_batch)))
    in
    let parts =
      Exec.Pool.map_seeded ?jobs ~seed
        (fun prng size ->
          let rng = rng_of_prng prng in
          let counts = Counts.create ~num_clbits:circuit.num_clbits in
          for _ = 1 to size do
            Counts.add counts (run_shot rng circuit)
          done;
          counts)
        sizes
    in
    List.fold_left Counts.merge
      (Counts.create ~num_clbits:circuit.num_clbits)
      parts
  end

(* Dynamic ops other than a trailing block of measurements make the
   distribution shot-dependent. *)
let only_final_measurements (c : Quantum.Circuit.t) =
  let seen_measure = Array.make (max 1 c.num_qubits) false in
  let ok = ref true in
  Array.iter
    (fun g ->
      match g.Quantum.Gate.kind with
      | Quantum.Gate.Measure (q, _) -> seen_measure.(q) <- true
      | Quantum.Gate.Reset _ | Quantum.Gate.If_x _ -> ok := false
      | k -> List.iter (fun q -> if seen_measure.(q) then ok := false) (Quantum.Gate.qubits k))
    c.gates;
  !ok

(* [wiring] is in execution order, so a left fold lets a later
   measurement overwrite an earlier one on the same clbit. *)
let read_off st ~creg wiring f =
  Array.iteri
    (fun basis p ->
      if p > 1e-12 then
        f
          (List.fold_left
             (fun acc (q, c) ->
               let acc = acc land lnot (1 lsl c) in
               if basis land (1 lsl q) <> 0 then acc lor (1 lsl c) else acc)
             creg wiring)
          p)
    (State.probabilities st)

let distribution ~seed circuit =
  let circuit = compact circuit in
  if not (only_final_measurements circuit) then run ~seed ~shots:4096 circuit
  else begin
    let st = State.init circuit.num_qubits in
    (* (qubit, clbit) wiring of the final measurements, latest first *)
    let wiring = ref [] in
    Array.iter
      (fun g ->
        match g.Quantum.Gate.kind with
        | Quantum.Gate.Measure (q, c) -> wiring := (q, c) :: !wiring
        | k -> State.apply_unitary st k)
      circuit.gates;
    let table = Hashtbl.create 64 in
    read_off st ~creg:0 (List.rev !wiring) (fun outcome p ->
        let cur = Option.value ~default:0. (Hashtbl.find_opt table outcome) in
        Hashtbl.replace table outcome (cur +. p));
    Counts.of_probs ~num_clbits:circuit.num_clbits ~shots:1_000_000
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])
  end
