(* Reference exact checker: the branch recursion that [Verify.Equiv]
   replaced, kept verbatim as a test oracle (only this header, the module
   paths of [Executor_ref] and [Verify.Verdict], and the split of
   [distribution] into its budget checks and [walk] are new). The
   outcome-tree walker must return the same distribution, bit for bit,
   and [check] the same verdict. *)

module Verdict = Verify.Verdict

let max_qubits = 12
let max_clbits = 20
let max_branches = 1 lsl 14
let tolerance = 1e-6

exception Budget of string

(* Probability mass below this is a dead branch (Born probabilities of
   impossible outcomes computed in floats land around 1e-16). *)
let prune = 1e-12

(* The branch recursion on a circuit as given, with no width or clbit
   check: the distribution over every clbit, or the branch budget's
   error. *)
let walk circuit =
  let gates = circuit.Quantum.Circuit.gates in
  let n = Array.length gates in
  let dist = Array.make (1 lsl circuit.Quantum.Circuit.num_clbits) 0. in
  let branches = ref 1 in
  (* suffix_final.(i): every gate from i on is a measurement or barrier,
     so the remaining circuit can be read off the state vector at once. *)
  let suffix_final = Array.make (n + 1) true in
  for i = n - 1 downto 0 do
    suffix_final.(i) <-
      suffix_final.(i + 1)
      &&
      match gates.(i).Quantum.Gate.kind with
      | Quantum.Gate.Measure _ | Quantum.Gate.Barrier _ -> true
      | _ -> false
  done;
  let read_off st creg weight i =
    let wiring = ref [] in
    for j = n - 1 downto i do
      match gates.(j).Quantum.Gate.kind with
      | Quantum.Gate.Measure (q, c) -> wiring := (q, c) :: !wiring
      | _ -> ()
    done;
    Executor_ref.read_off st ~creg !wiring (fun outcome p ->
        dist.(outcome) <- dist.(outcome) +. (weight *. p))
  in
  let rec go st creg weight i =
    if weight <= prune then ()
    else if i >= n then dist.(creg) <- dist.(creg) +. weight
    else if suffix_final.(i) then read_off st creg weight i
    else begin
      match gates.(i).Quantum.Gate.kind with
      | Quantum.Gate.If_x (c, q) ->
        if creg land (1 lsl c) <> 0 then Executor_ref.State.apply_one_q st Quantum.Gate.X q;
        go st creg weight (i + 1)
      | Quantum.Gate.Measure (q, c) ->
        branch st q weight (fun st outcome w ->
            let creg' =
              let cleared = creg land lnot (1 lsl c) in
              if outcome = 1 then cleared lor (1 lsl c) else cleared
            in
            go st creg' w (i + 1))
      | Quantum.Gate.Reset q ->
        branch st q weight (fun st outcome w ->
            if outcome = 1 then Executor_ref.State.apply_one_q st Quantum.Gate.X q;
            go st creg w (i + 1))
      | kind ->
        Executor_ref.State.apply_unitary st kind;
        go st creg weight (i + 1)
    end
  and branch st q weight k =
    let p1 = Executor_ref.State.prob_one st q in
    let p0 = 1. -. p1 in
    if p1 *. weight <= prune then begin
      Executor_ref.State.collapse st q 0;
      k st 0 (weight *. p0)
    end
    else if p0 *. weight <= prune then begin
      Executor_ref.State.collapse st q 1;
      k st 1 (weight *. p1)
    end
    else begin
      incr branches;
      if !branches > max_branches then
        raise
          (Budget
             (Printf.sprintf "more than %d measurement branches" max_branches));
      let st1 = Executor_ref.State.copy st in
      Executor_ref.State.collapse st q 0;
      k st 0 (weight *. p0);
      Executor_ref.State.collapse st1 q 1;
      k st1 1 (weight *. p1)
    end
  in
  match go (Executor_ref.State.init circuit.Quantum.Circuit.num_qubits) 0 1. 0 with
  | () -> Ok dist
  | exception Budget why -> Error why

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
  else walk circuit

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
      if !l1 <= tolerance then Verdict.Equivalent
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
