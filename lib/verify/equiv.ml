let max_qubits = 12
let max_clbits = 20
let max_branches = 1 lsl 14
let tolerance = 1e-6

let distribution circuit =
  (* Routing SWAPs cost wires, not semantics: elide them first so a
     physical circuit compacts back toward its logical width. *)
  let circuit, _ =
    Quantum.Circuit.compact_qubits (Quantum.Optimize.elide_swaps circuit)
  in
  if circuit.Quantum.Circuit.num_qubits > max_qubits then
    Error
      (Printf.sprintf "circuit is %d qubits wide (exact limit %d)"
         circuit.Quantum.Circuit.num_qubits max_qubits)
  else if circuit.Quantum.Circuit.num_clbits > max_clbits then
    Error
      (Printf.sprintf "circuit has %d clbits (exact limit %d)"
         circuit.Quantum.Circuit.num_clbits max_clbits)
  else Sim.Executor.exact ~max_branches circuit

(* Scratch clbits above the compared range only need distinct names, so
   renumber the used ones densely. SR artifacts declare one scratch per
   physical qubit and would otherwise blow the clbit budget for no
   reason. *)
let compact_scratch_clbits ~keep (c : Quantum.Circuit.t) =
  let map = Hashtbl.create 8 in
  let next = ref keep in
  let remap cb =
    if cb < keep then cb
    else
      match Hashtbl.find_opt map cb with
      | Some v -> v
      | None ->
        let v = !next in
        incr next;
        Hashtbl.add map cb v;
        v
  in
  let kinds =
    List.map
      (fun (g : Quantum.Gate.t) ->
        match g.Quantum.Gate.kind with
        | Quantum.Gate.Measure (q, cb) -> Quantum.Gate.Measure (q, remap cb)
        | Quantum.Gate.If_x (cb, q) -> Quantum.Gate.If_x (remap cb, q)
        | k -> k)
      (Array.to_list c.Quantum.Circuit.gates)
  in
  Quantum.Circuit.of_kinds ~num_qubits:c.Quantum.Circuit.num_qubits
    ~num_clbits:(max 1 !next) kinds

(* Marginalize a distribution over [c] clbits down to the low [shared]. *)
let marginalize dist shared =
  let out = Array.make (1 lsl shared) 0. in
  let mask = (1 lsl shared) - 1 in
  Array.iteri (fun i p -> out.(i land mask) <- out.(i land mask) +. p) dist;
  out

let check ~(original : Quantum.Circuit.t)
    ~(transformed : Quantum.Circuit.t) () =
  let shared =
    min original.Quantum.Circuit.num_clbits transformed.Quantum.Circuit.num_clbits
  in
  if shared = 0 then
    Verdict.Inconclusive "no classical output to compare (0 shared clbits)"
  else begin
    let original = compact_scratch_clbits ~keep:shared original in
    let transformed = compact_scratch_clbits ~keep:shared transformed in
    match (distribution original, distribution transformed) with
    | Error why, _ -> Verdict.inconclusivef "original: %s" why
    | _, Error why -> Verdict.inconclusivef "transformed: %s" why
    | Ok d_o, Ok d_t ->
      let d_o = marginalize d_o shared and d_t = marginalize d_t shared in
      let l1 = ref 0. in
      let worst = ref (-1) in
      let worst_diff = ref 0. in
      Array.iteri
        (fun i p ->
          let diff = Float.abs (p -. d_t.(i)) in
          l1 := !l1 +. diff;
          if diff > !worst_diff then begin
            worst_diff := diff;
            worst := i
          end)
        d_o;
      (* A NaN or infinite probability (say, from a NaN rotation angle)
         makes the distance unusable and may leave no worst outcome. *)
      if not (Float.is_finite !l1) then
        Verdict.inconclusivef
          "exact distributions are not finite (L1 distance %.3e over %d shared \
           clbits)"
          !l1 shared
      else if !l1 <= tolerance then Verdict.Equivalent
      else
        Verdict.Inequivalent
          {
            Verdict.outcome = !worst;
            p_left = d_o.(!worst);
            p_right = d_t.(!worst);
            detail =
              Printf.sprintf
                "exact distributions differ (L1 distance %.3e over %d shared \
                 clbits)"
                !l1 shared;
          }
  end
