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

(* Active qubits (wires some non-barrier gate touches), SWAPs and
   two-qubit unitaries in one pass; a SWAP is 3 CNOTs, so it counts 2
   two-qubit gates on top of its own. *)
let stats_of device (physical : Quantum.Circuit.t) =
  let used = Bytes.make physical.num_qubits '\000' in
  let qubits_used = ref 0 and swaps = ref 0 and two_q = ref 0 in
  let use q =
    if Bytes.get used q = '\000' then begin
      Bytes.set used q '\001';
      incr qubits_used
    end
  in
  Array.iter
    (fun (g : Quantum.Gate.t) ->
      match g.kind with
      | Quantum.Gate.One_q (_, q)
      | Quantum.Gate.Reset q
      | Quantum.Gate.Measure (q, _)
      | Quantum.Gate.If_x (_, q) ->
        use q
      | Quantum.Gate.Cx (a, b) | Quantum.Gate.Cz (a, b) | Quantum.Gate.Rzz (_, a, b) ->
        use a;
        use b;
        incr two_q
      | Quantum.Gate.Swap (a, b) ->
        use a;
        use b;
        incr swaps;
        two_q := !two_q + 3
      | Quantum.Gate.Barrier _ -> ())
    physical.gates;
  {
    qubits_used = !qubits_used;
    depth = Quantum.Circuit.depth physical;
    duration_dt = physical_duration device physical;
    swaps = !swaps;
    two_q = !two_q;
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
