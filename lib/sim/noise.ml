type ctx = {
  device : Hardware.Device.t;
  phys_of : int array;  (* compacted wire -> physical qubit *)
  rng : Random.State.t;
  start : int array;  (* gate index -> ASAP start in dt *)
  finish : int array;  (* gate index -> ASAP finish in dt *)
}

let depolarize_1q ctx st q p =
  if Random.State.float ctx.rng 1. < p then
    State.apply_pauli st (1 + Random.State.int ctx.rng 3) q

let depolarize_2q ctx st a b p =
  if Random.State.float ctx.rng 1. < p then begin
    (* One of the 15 non-identity two-qubit Paulis. *)
    let k = 1 + Random.State.int ctx.rng 15 in
    State.apply_pauli st (k land 3) a;
    State.apply_pauli st ((k lsr 2) land 3) b
  end

(* Pauli-twirled thermal relaxation over an idle window of [dt] cycles. *)
let relax ctx st q ~idle_dt =
  if idle_dt > 0 then begin
    let cal = Hardware.Calibration.qubit ctx.device.Hardware.Device.calibration
        ctx.phys_of.(q)
    in
    let t1 = cal.Hardware.Calibration.t1_dt in
    let t2 = cal.Hardware.Calibration.t2_dt in
    if t1 < infinity then begin
      let t = float_of_int idle_dt in
      let p_relax = 1. -. exp (-.t /. t1) in
      let p_dephase = 1. -. exp (-.t /. t2) in
      let px = p_relax /. 4. in
      let pz = Float.max 0. ((p_dephase /. 2.) -. (p_relax /. 4.)) in
      let r = Random.State.float ctx.rng 1. in
      if r < px then State.apply_pauli st 1 q
      else if r < 2. *. px then State.apply_pauli st 2 q
      else if r < (2. *. px) +. pz then State.apply_pauli st 3 q
    end
  end

(* The schedule is fixed per circuit: each shot only tracks, per wire,
   when its last gate finished, to size the idle window before the next.
   [st] is the run's one state, set back to |0...0> here. *)
let run_shot ctx st (c : Quantum.Circuit.t) =
  State.clear st;
  let creg = ref 0 in
  let last_finish = Array.make (max 1 c.num_qubits) 0 in
  Array.iteri
    (fun i g ->
      let kind = g.Quantum.Gate.kind in
      if not (Quantum.Gate.is_barrier kind) then begin
        let qs = Quantum.Gate.qubits kind in
        (* Idle relaxation on each operand between its last op and now. *)
        List.iter
          (fun q -> relax ctx st q ~idle_dt:(ctx.start.(i) - last_finish.(q)))
          qs;
        (match kind with
         | Quantum.Gate.One_q (_, q) ->
           State.apply_unitary st kind;
           let p =
             (Hardware.Calibration.qubit
                ctx.device.Hardware.Device.calibration ctx.phys_of.(q))
               .Hardware.Calibration.one_q_error
           in
           depolarize_1q ctx st q p
         | Quantum.Gate.Cx (a, b) | Quantum.Gate.Cz (a, b) | Quantum.Gate.Rzz (_, a, b) | Quantum.Gate.Swap (a, b)
           ->
           State.apply_unitary st kind;
           let p =
             Hardware.Device.cx_error ctx.device ctx.phys_of.(a) ctx.phys_of.(b)
           in
           let p =
             match kind with
             | Quantum.Gate.Swap _ -> 1. -. ((1. -. p) ** 3.)
             | _ -> p
           in
           (* Non-adjacent operands mean the caller skipped routing; fall
              back to a generic error rather than the sentinel 1.0. *)
           let p = if p >= 1. then 0.02 else p in
           depolarize_2q ctx st a b p
         | Quantum.Gate.Measure (q, cb) ->
           let outcome = State.measure ctx.rng st q in
           let ro =
             Hardware.Device.readout_error ctx.device ctx.phys_of.(q)
           in
           let outcome =
             if Random.State.float ctx.rng 1. < ro then 1 - outcome else outcome
           in
           creg := (!creg land lnot (1 lsl cb)) lor (outcome lsl cb)
         | Quantum.Gate.Reset q -> State.reset ctx.rng st q
         | Quantum.Gate.If_x (cb, q) ->
           if !creg land (1 lsl cb) <> 0 then State.apply_one_q st Quantum.Gate.X q
         | Quantum.Gate.Barrier _ -> ());
        List.iter (fun q -> last_finish.(q) <- ctx.finish.(i)) qs
      end)
    c.gates;
  !creg

let prepare circuit =
  let compacted, remap = Quantum.Circuit.compact_qubits circuit in
  let phys_of = Array.make (max 1 compacted.Quantum.Circuit.num_qubits) 0 in
  Array.iteri (fun old_q new_q -> if new_q >= 0 then phys_of.(new_q) <- old_q) remap;
  (compacted, phys_of)

let run ~device ~seed ~shots circuit =
  let compacted, phys_of = prepare circuit in
  (* Compaction renames wires but keeps the gate order, so the schedule
     of the physical circuit indexes the compacted one's gates. *)
  let n = Array.length circuit.Quantum.Circuit.gates in
  let start = Array.make n 0 and finish = Array.make n 0 in
  ignore
    (Quantum.Circuit.schedule
       ~on_gate:(fun i s f ->
         start.(i) <- s;
         finish.(i) <- f)
       (Hardware.Device.gate_duration device)
       circuit);
  let rng = Random.State.make [| seed; 0x401 |] in
  let ctx = { device; phys_of; rng; start; finish } in
  let counts = Counts.create ~num_clbits:compacted.Quantum.Circuit.num_clbits in
  if shots > 0 then begin
    let st = State.init compacted.Quantum.Circuit.num_qubits in
    for _ = 1 to shots do
      Counts.add counts (run_shot ctx st compacted)
    done
  end;
  counts

let tvd_vs_ideal ~device ~seed ~shots circuit =
  let noisy = run ~device ~seed ~shots circuit in
  let ideal = Executor.distribution ~seed circuit in
  Counts.tvd noisy ideal
