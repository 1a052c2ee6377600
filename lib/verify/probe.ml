type config = { probes : int; product_inputs : int list }

let default = { probes = 4; product_inputs = [] }
let shots = 512
let tolerance = 5. /. sqrt (float_of_int shots)
let max_qubits = 22

let prepend prefix (c : Quantum.Circuit.t) =
  if prefix = [] then c
  else
    Quantum.Circuit.of_kinds ~num_qubits:c.num_qubits ~num_clbits:c.num_clbits
      (prefix
      @ Array.to_list (Array.map (fun g -> g.Quantum.Gate.kind) c.gates))

(* Outcome statistics on the low [shared] clbits: P(bit i = 1) for every
   bit and P(bit i <> bit j) for every pair. *)
let statistics counts shared =
  let probs = Sim.Counts.to_probs counts in
  let marg = Array.make shared 0. in
  let xor = Array.make_matrix shared shared 0. in
  List.iter
    (fun (outcome, p) ->
      for i = 0 to shared - 1 do
        if outcome land (1 lsl i) <> 0 then marg.(i) <- marg.(i) +. p;
        for j = i + 1 to shared - 1 do
          if (outcome land (1 lsl i) <> 0) <> (outcome land (1 lsl j) <> 0) then
            xor.(i).(j) <- xor.(i).(j) +. p
        done
      done)
    probs;
  (marg, xor)

(* A side with only trailing measurements has a shot-independent
   distribution, so one exact pass beats sampling (and removes the
   sampling noise from that side of the comparison). *)
let counts_of ~seed circuit =
  if Sim.Executor.only_final_measurements circuit then
    Sim.Executor.distribution ~seed circuit
  else Sim.Executor.run ~seed ~shots circuit

let random_prefix rng qubits =
  List.filter_map
    (fun q ->
      if Random.State.bool rng then
        Some
          (Quantum.Gate.One_q
             (Quantum.Gate.Ry (0.3 +. Random.State.float rng 2.5), q))
      else None)
    qubits

let check ?(config = default) ~seed ~(original : Quantum.Circuit.t)
    ~(transformed : Quantum.Circuit.t) () =
  (* Elide routing SWAPs up front (exact for outcome statistics): every
     probe is a full-width state-vector pass, and a routed circuit's
     swap traffic can double its active width. The Ry prefixes below
     address start-of-circuit wires, which elision never relabels. *)
  let original = Quantum.Optimize.elide_swaps original in
  let transformed = Quantum.Optimize.elide_swaps transformed in
  let shared =
    min original.Quantum.Circuit.num_clbits transformed.Quantum.Circuit.num_clbits
  in
  let width c =
    (fst (Quantum.Circuit.compact_qubits c)).Quantum.Circuit.num_qubits
  in
  if shared = 0 then
    Verdict.Inconclusive "no classical output to compare (0 shared clbits)"
  else if width original > max_qubits then
    Verdict.inconclusivef "original is %d qubits wide (probe limit %d)"
      (width original) max_qubits
  else if width transformed > max_qubits then
    Verdict.inconclusivef "transformed is %d qubits wide (probe limit %d)"
      (width transformed) max_qubits
  else begin
    let verdict = ref Verdict.Equivalent in
    let probe = ref 0 in
    while Verdict.is_equivalent !verdict && !probe < config.probes do
      let i = !probe in
      let probe_seed = seed + (7919 * i) in
      let prefix =
        if i = 0 || config.product_inputs = [] then []
        else
          random_prefix
            (Random.State.make [| seed; i; 0x9e37 |])
            config.product_inputs
      in
      let co = counts_of ~seed:probe_seed (prepend prefix original) in
      let ct = counts_of ~seed:(probe_seed + 1) (prepend prefix transformed) in
      let mo, xo = statistics co shared in
      let mt, xt = statistics ct shared in
      for b = 0 to shared - 1 do
        let diff = Float.abs (mo.(b) -. mt.(b)) in
        if diff > tolerance && Verdict.is_equivalent !verdict then
          verdict :=
            Verdict.Inequivalent
              {
                Verdict.outcome = b;
                p_left = mo.(b);
                p_right = mt.(b);
                detail =
                  Printf.sprintf
                    "probe %d: P(clbit %d = 1) differs by %.3f (tolerance %.3f)"
                    i b diff tolerance;
              }
      done;
      for b = 0 to shared - 1 do
        for b' = b + 1 to shared - 1 do
          let diff = Float.abs (xo.(b).(b') -. xt.(b).(b')) in
          if diff > tolerance && Verdict.is_equivalent !verdict then
            verdict :=
              Verdict.Inequivalent
                {
                  Verdict.outcome = b lor (b' lsl 8);
                  p_left = xo.(b).(b');
                  p_right = xt.(b).(b');
                  detail =
                    Printf.sprintf
                      "probe %d: P(clbit %d <> clbit %d) differs by %.3f \
                       (tolerance %.3f)"
                      i b b' diff tolerance;
                }
        done
      done;
      incr probe
    done;
    !verdict
  end
