type t = Engines | Verified | Roundtrip
type verdict = Pass | Fail of string

let all = [ Engines; Verified; Roundtrip ]

let name = function
  | Engines -> "engines"
  | Verified -> "verified"
  | Roundtrip -> "roundtrip"

let of_name s =
  match List.find_opt (fun o -> name o = s) all with
  | Some o -> Ok o
  | None ->
    Error
      (Printf.sprintf "unknown oracle %S (expected %s)" s
         (String.concat " | " (List.map name all)))

(* ---- sampled-distribution machinery ---- *)

(* Project a histogram onto the low [num_clbits] program bits — the
   transforms may have appended scratch clbits for conditional resets. *)
let marginal ~num_clbits counts =
  let mask = (1 lsl num_clbits) - 1 in
  let out = Sim.Counts.create ~num_clbits in
  List.iter
    (fun (outcome, _) ->
      let k = Sim.Counts.get counts outcome in
      for _ = 1 to k do
        Sim.Counts.add out (outcome land mask)
      done)
    (Sim.Counts.to_probs counts);
  out

let distinct_outcomes a b =
  let outs c = List.map fst (Sim.Counts.to_probs c) in
  List.length (List.sort_uniq compare (outs a @ outs b))

let sim_max_qubits = 6
let sim_shots = 1024

(* Two finite samples of the same distribution over K outcomes sit
   around TVD ~ sqrt(K / shots) / 2; the additive floor keeps
   low-entropy circuits from tripping on shot noise. *)
let tvd_threshold a b =
  let k = distinct_outcomes a b in
  0.1 +. sqrt (float_of_int k /. float_of_int sim_shots)

(* ---- engines: the cross-engine differential oracle ---- *)

(* Incremental-vs-reference sweep identity — the original [engines]
   check, kept as the first leg of the cross-engine battery. *)
let check_sweep_identity c =
  let inc = Caqr.Qs_caqr.sweep c in
  let reference = Qs_ref.sweep c in
  if inc = reference then Pass
  else begin
    let rec first_diff i = function
      | a :: ar, b :: br -> if a = b then first_diff (i + 1) (ar, br) else i
      | _ -> i
    in
    Fail
      (Printf.sprintf
         "incremental and reference sweeps diverge (lengths %d vs %d, first \
          differing step %d)"
         (List.length inc) (List.length reference)
         (first_diff 0 (inc, reference)))
  end

let cross_engines =
  List.map
    (fun (strategy, run) ->
      ( Caqr.Pipeline.strategy_name strategy,
        fun c ->
          run
            (Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits)
            (Caqr.Pipeline.Regular c) ))
    Caqr.Pipeline.engines

(* Every engine must (a) emit a well-formed circuit whose pair
   certificate (when it names one) revalidates against the original,
   (b) reproduce the original's output distribution on the program
   clbits, and (c) claim a width that matches its artifact and sits in
   [min over engines, baseline]. One bad engine is caught by the other
   three — N-version testing, with the generated circuit as the vote. *)
let check_engines_with ~seed engines c =
  let baseline = List.length (Quantum.Circuit.active_qubits c) in
  let artifacts = List.map (fun (name, f) -> (name, f c)) engines in
  let widths = List.map (fun (_, a) -> a.Caqr.Engine.width) artifacts in
  let min_width = List.fold_left min max_int widths in
  let d0 =
    if c.Quantum.Circuit.num_qubits <= sim_max_qubits then
      Some (Sim.Executor.run ~seed ~shots:sim_shots c)
    else None
  in
  let check_one i (name, a) =
    let structural =
      match Verify.Structural.check_wellformed a.Caqr.Engine.circuit with
      | Verify.Verdict.Inequivalent ce ->
        Fail (Printf.sprintf "%s: artifact is malformed: %s" name
                ce.Verify.Verdict.detail)
      | _ ->
        (match a.Caqr.Engine.pairs with
         | None -> Pass
         | Some pairs ->
           (match
              Verify.Structural.check_pairs ~original:c
                (List.map
                   (fun (p : Caqr.Reuse.pair) ->
                     { Verify.Structural.src = p.Caqr.Reuse.src;
                       dst = p.Caqr.Reuse.dst })
                   pairs)
            with
            | Verify.Verdict.Inequivalent ce ->
              Fail
                (Printf.sprintf "%s: pair certificate refuted: %s" name
                   ce.Verify.Verdict.detail)
            | _ -> Pass))
    in
    if structural <> Pass then structural
    else if
      a.Caqr.Engine.width
      <> List.length (Quantum.Circuit.active_qubits a.Caqr.Engine.circuit)
    then
      Fail
        (Printf.sprintf "%s: claims width %d but its artifact uses %d wires"
           name a.Caqr.Engine.width
           (List.length (Quantum.Circuit.active_qubits a.Caqr.Engine.circuit)))
    else if a.Caqr.Engine.width > baseline + a.Caqr.Engine.slack then
      Fail
        (Printf.sprintf "%s: width %d exceeds the baseline width %d%s" name
           a.Caqr.Engine.width baseline
           (if a.Caqr.Engine.slack > 0 then
              Printf.sprintf " (+%d routing slack)" a.Caqr.Engine.slack
            else ""))
    else if a.Caqr.Engine.width < min_width then
      Fail (Printf.sprintf "%s: width fell below the engine minimum" name)
    else
      match d0 with
      | Some d0
        when List.length (Quantum.Circuit.active_qubits a.Caqr.Engine.circuit)
             <= sim_max_qubits + 2 ->
        (* +2: SR routing may touch a couple of extra physical wires;
           the executor compacts, so the state stays small. *)
        let d1 =
          marginal ~num_clbits:c.Quantum.Circuit.num_clbits
            (Sim.Executor.run ~seed:(seed + i + 1) ~shots:sim_shots
               a.Caqr.Engine.circuit)
        in
        let tvd = Sim.Counts.tvd d0 d1 in
        let threshold = tvd_threshold d0 d1 in
        if tvd <= threshold then Pass
        else
          Fail
            (Printf.sprintf
               "%s: output distribution shifted: TVD %.3f > %.3f" name tvd
               threshold)
      | _ -> Pass
  in
  let rec first_fail i = function
    | [] -> Pass
    | a :: rest ->
      (match check_one i a with Pass -> first_fail (i + 1) rest | f -> f)
  in
  first_fail 0 artifacts

let check_engines ~seed c =
  match check_sweep_identity c with
  | Fail _ as f -> f
  | Pass -> check_engines_with ~seed cross_engines c

(* ---- verified: compile + translation validation ---- *)

let check_verified ~seed c =
  let device = Hardware.Device.heavy_hex_for c.Quantum.Circuit.num_qubits in
  let strategy =
    match seed mod 3 with
    | 0 -> Caqr.Pipeline.Qs_max_reuse
    | 1 -> Caqr.Pipeline.Qs_min_depth
    | _ -> Caqr.Pipeline.Sr
  in
  let options =
    { Caqr.Pipeline.default with verify = Some Verify.Auto; seed }
  in
  let r =
    Caqr.Pipeline.compile ~options device strategy (Caqr.Pipeline.Regular c)
  in
  match r.Caqr.Pipeline.verification with
  | Some (Verify.Inequivalent ce) ->
    Fail
      (Printf.sprintf "%s: verifier refuted the compiled artifact: %s"
         (Caqr.Pipeline.strategy_name strategy)
         ce.Verify.Verdict.detail)
  | Some Verify.Equivalent | Some (Verify.Inconclusive _) -> Pass
  | None -> Fail "Pipeline.compile dropped the requested verification"

(* ---- roundtrip: print -> parse fixpoint ---- *)

let same_kind_mod_print a b =
  (* The printer truncates angles to 4 decimals; everything else must
     survive exactly. *)
  let close x y = Float.abs (x -. y) <= 1e-4 in
  match (a, b) with
  | Quantum.Gate.One_q (ga, qa), Quantum.Gate.One_q (gb, qb) ->
    qa = qb
    && (match (ga, gb) with
        | Quantum.Gate.Rx x, Quantum.Gate.Rx y
        | Quantum.Gate.Ry x, Quantum.Gate.Ry y
        | Quantum.Gate.Rz x, Quantum.Gate.Rz y
        | Quantum.Gate.Phase x, Quantum.Gate.Phase y -> close x y
        | _ -> ga = gb)
  | Quantum.Gate.Rzz (x, a1, a2), Quantum.Gate.Rzz (y, b1, b2) ->
    close x y && a1 = b1 && a2 = b2
  | _ -> a = b

let check_roundtrip c =
  let s1 = Quantum.Qasm.to_string c in
  match Quantum.Qasm_parser.of_string s1 with
  | exception Failure msg -> Fail ("printer output does not parse: " ^ msg)
  | c1 ->
    let s2 = Quantum.Qasm.to_string c1 in
    if s1 <> s2 then Fail "print -> parse -> print is not a fixpoint"
    else if c1.Quantum.Circuit.num_qubits <> c.Quantum.Circuit.num_qubits then
      Fail "reparse changed the qubit count"
    else if c1.Quantum.Circuit.num_clbits <> c.Quantum.Circuit.num_clbits then
      Fail "reparse changed the clbit count"
    else if Quantum.Circuit.gate_count c1 <> Quantum.Circuit.gate_count c then
      Fail
        (Printf.sprintf "reparse changed the gate count (%d -> %d)"
           (Quantum.Circuit.gate_count c)
           (Quantum.Circuit.gate_count c1))
    else if
      not
        (Array.for_all2
           (fun a b -> same_kind_mod_print a.Quantum.Gate.kind b.Quantum.Gate.kind)
           c.Quantum.Circuit.gates c1.Quantum.Circuit.gates)
    then Fail "reparse changed a gate"
    else Pass

let check oracle ~seed c =
  let verdict =
    try
      match oracle with
      | Engines -> check_engines ~seed c
      | Verified -> check_verified ~seed c
      | Roundtrip -> check_roundtrip c
    with e -> Fail ("uncaught exception: " ^ Printexc.to_string e)
  in
  (match verdict with
   | Pass -> Obs.Metrics.incr (Printf.sprintf "fuzz.oracle.%s.pass" (name oracle))
   | Fail _ -> Obs.Metrics.incr (Printf.sprintf "fuzz.oracle.%s.fail" (name oracle)));
  verdict
