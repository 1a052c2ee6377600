(* Reference routed-circuit metrics: the multi-pass definitions that
   [Transpiler.Transpile.stats_of] and [Transpiler.Esp] replaced, kept
   verbatim as test oracles. The one-pass counts must equal these stats
   field for field, and the loop ESP must equal this ESP bit for bit. *)

open Transpiler.Transpile

let stats_of device physical =
  {
    qubits_used = List.length (Quantum.Circuit.active_qubits physical);
    depth = Quantum.Circuit.depth physical;
    duration_dt = physical_duration device physical;
    swaps = Quantum.Circuit.swap_count physical;
    two_q =
      Quantum.Circuit.two_q_count physical
      + (2 * Quantum.Circuit.swap_count physical);
    (* a SWAP is 3 CNOTs: count the 2 extra *)
    gate_count = Quantum.Circuit.gate_count physical;
  }

let gate_factor device (c : Quantum.Circuit.t) =
  Array.fold_left
    (fun acc g ->
      match g.Quantum.Gate.kind with
      | Quantum.Gate.One_q (_, q) | Quantum.Gate.If_x (_, q) ->
        let cal =
          Hardware.Calibration.qubit device.Hardware.Device.calibration q
        in
        acc *. (1. -. cal.Hardware.Calibration.one_q_error)
      | Quantum.Gate.Cx (a, b) | Quantum.Gate.Cz (a, b) | Quantum.Gate.Rzz (_, a, b)
        ->
        acc *. (1. -. Float.min 0.5 (Hardware.Device.cx_error device a b))
      | Quantum.Gate.Swap (a, b) ->
        let e = Float.min 0.5 (Hardware.Device.cx_error device a b) in
        acc *. ((1. -. e) ** 3.)
      | Quantum.Gate.Measure (q, _) | Quantum.Gate.Reset q ->
        acc *. (1. -. Hardware.Device.readout_error device q)
      | Quantum.Gate.Barrier _ -> acc)
    1. c.Quantum.Circuit.gates

let decoherence_factor device (c : Quantum.Circuit.t) =
  (* Per-wire busy spans under the device-aware ASAP schedule; each active
     qubit damps over the total circuit duration (a qubit idles exposed
     even after its gates finish until it is measured or the circuit
     ends — conservative but monotone in duration, which is what version
     ranking needs). *)
  let duration = float_of_int (physical_duration device c) in
  List.fold_left
    (fun acc q ->
      let cal = Hardware.Calibration.qubit device.Hardware.Device.calibration q in
      let t1 = cal.Hardware.Calibration.t1_dt in
      let t2 = cal.Hardware.Calibration.t2_dt in
      if t1 = infinity then acc
      else acc *. exp (-.duration /. t1) *. exp (-.duration /. t2))
    1.
    (Quantum.Circuit.active_qubits c)

let of_circuit device c = gate_factor device c *. decoherence_factor device c
