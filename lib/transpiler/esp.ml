(* Survival factors multiply in gate order, one [for] loop each with an
   unboxed accumulator. A link's CNOT error (1 when the qubits are not
   adjacent) is capped at 0.5; it is read from the device's link table
   in place, as a float returned across a module boundary is boxed. *)
let[@inline] capped_link_error device a b =
  match Hardware.Device.link_index device a b with
  | -1 -> 0.5
  | k ->
    let e = device.Hardware.Device.nbr_error.(a).(k) in
    if e < 0.5 then e else 0.5

let gate_factor device (c : Quantum.Circuit.t) =
  let calibration = device.Hardware.Device.calibration in
  let acc = ref 1. in
  for i = 0 to Array.length c.gates - 1 do
    match c.gates.(i).Quantum.Gate.kind with
    | Quantum.Gate.One_q (_, q) | Quantum.Gate.If_x (_, q) ->
      let cal = Hardware.Calibration.qubit calibration q in
      acc := !acc *. (1. -. cal.Hardware.Calibration.one_q_error)
    | Quantum.Gate.Cx (a, b) | Quantum.Gate.Cz (a, b) | Quantum.Gate.Rzz (_, a, b)
      ->
      acc := !acc *. (1. -. capped_link_error device a b)
    | Quantum.Gate.Swap (a, b) ->
      acc := !acc *. ((1. -. capped_link_error device a b) ** 3.)
    | Quantum.Gate.Measure (q, _) | Quantum.Gate.Reset q ->
      let cal = Hardware.Calibration.qubit calibration q in
      acc := !acc *. (1. -. cal.Hardware.Calibration.readout_error)
    | Quantum.Gate.Barrier _ -> ()
  done;
  !acc

let decoherence_factor device (c : Quantum.Circuit.t) =
  (* Per-wire busy spans under the device-aware ASAP schedule; each active
     qubit damps over the total circuit duration (a qubit idles exposed
     even after its gates finish until it is measured or the circuit
     ends — conservative but monotone in duration, which is what version
     ranking needs). Active qubits (touched by a non-barrier gate) damp
     in ascending order. *)
  let duration = float_of_int (Transpile.physical_duration device c) in
  let active = Bytes.make c.num_qubits '\000' in
  for i = 0 to Array.length c.gates - 1 do
    match c.gates.(i).Quantum.Gate.kind with
    | Quantum.Gate.One_q (_, q)
    | Quantum.Gate.Reset q
    | Quantum.Gate.Measure (q, _)
    | Quantum.Gate.If_x (_, q) ->
      Bytes.set active q '\001'
    | Quantum.Gate.Cx (a, b)
    | Quantum.Gate.Cz (a, b)
    | Quantum.Gate.Rzz (_, a, b)
    | Quantum.Gate.Swap (a, b) ->
      Bytes.set active a '\001';
      Bytes.set active b '\001'
    | Quantum.Gate.Barrier _ -> ()
  done;
  let calibration = device.Hardware.Device.calibration in
  let acc = ref 1. in
  for q = 0 to c.num_qubits - 1 do
    if Bytes.get active q <> '\000' then begin
      let cal = Hardware.Calibration.qubit calibration q in
      let t1 = cal.Hardware.Calibration.t1_dt in
      let t2 = cal.Hardware.Calibration.t2_dt in
      if t1 <> infinity then
        acc := !acc *. exp (-.duration /. t1) *. exp (-.duration /. t2)
    end
  done;
  !acc

let of_circuit device c = gate_factor device c *. decoherence_factor device c
