type stats = {
  qubits_used : int;
  depth : int;
  duration_dt : int;
  swaps : int;
  two_q : int;
  gate_count : int;
}

type result = { physical : Quantum.Circuit.t; stats : stats }

let physical_duration device c =
  Quantum.Circuit.schedule (Hardware.Device.gate_duration device) c

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

let run device circuit =
  Obs.Metrics.incr "transpile.runs";
  Obs.Metrics.time "time.route" @@ fun () ->
  (* Qiskit-O3-style gate-level cleanup before routing. *)
  let circuit = Quantum.Optimize.peephole circuit in
  let layout = Layout.initial device circuit in
  let routed = Router.route device layout circuit in
  { physical = routed.Router.physical; stats = stats_of device routed.Router.physical }

let pp_stats ppf s =
  Format.fprintf ppf "qubits=%d depth=%d duration=%ddt swaps=%d 2q=%d gates=%d"
    s.qubits_used s.depth s.duration_dt s.swaps s.two_q s.gate_count
