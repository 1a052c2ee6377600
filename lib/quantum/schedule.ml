type entry = { gate : Gate.t; start_dt : int; finish_dt : int }
type t = { entries : entry array; makespan : int }

let asap (c : Circuit.t) =
  let n = Array.length c.Circuit.gates in
  let start = Array.make n 0 and finish = Array.make n 0 in
  let makespan =
    Circuit.schedule
      ~on_gate:(fun i s f ->
        start.(i) <- s;
        finish.(i) <- f)
      (Duration.of_kind Duration.default) c
  in
  let entries =
    Array.mapi
      (fun i gate -> { gate; start_dt = start.(i); finish_dt = finish.(i) })
      c.Circuit.gates
  in
  { entries; makespan }

let busy t ~num_qubits =
  let acc = Array.make (max 1 num_qubits) 0 in
  Array.iter
    (fun e ->
      if not (Gate.is_barrier e.gate.Gate.kind) then
        List.iter
          (fun q -> acc.(q) <- acc.(q) + (e.finish_dt - e.start_dt))
          (Gate.qubits e.gate.Gate.kind))
    t.entries;
  acc

let idle_fraction t ~num_qubits =
  let b = busy t ~num_qubits in
  Array.map
    (fun busy_dt ->
      if t.makespan = 0 then 0.
      else 1. -. (float_of_int busy_dt /. float_of_int t.makespan))
    b

let initial kind =
  match kind with
  | Gate.One_q (g, _) ->
    (match g with
     | Gate.H -> 'H'
     | Gate.X -> 'X'
     | Gate.Y -> 'Y'
     | Gate.Z -> 'Z'
     | Gate.S | Gate.Sdg -> 'S'
     | Gate.T | Gate.Tdg -> 'T'
     | Gate.Sx -> 'V'
     | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _ -> 'R')
  | Gate.Cx _ -> 'C'
  | Gate.Cz _ -> 'Z'
  | Gate.Rzz _ -> 'Z'
  | Gate.Swap _ -> 'W'
  | Gate.Measure _ -> 'M'
  | Gate.Reset _ -> '0'
  | Gate.If_x _ -> '?'
  | Gate.Barrier _ -> '|'

let to_string ?(width = 64) ~num_qubits t =
  if t.makespan = 0 then ""
  else begin
    let rows = Array.make num_qubits (Bytes.make width '.') in
    for q = 0 to num_qubits - 1 do
      rows.(q) <- Bytes.make width '.'
    done;
    let col dt = min (width - 1) (dt * width / max 1 t.makespan) in
    Array.iter
      (fun e ->
        let k = e.gate.Gate.kind in
        if not (Gate.is_barrier k) then
          List.iter
            (fun q ->
              if q < num_qubits then
                for x = col e.start_dt to max (col e.start_dt) (col (e.finish_dt - 1)) do
                  Bytes.set rows.(q) x (initial k)
                done)
            (Gate.qubits k))
      t.entries;
    let buf = Buffer.create (num_qubits * (width + 8)) in
    Array.iteri
      (fun q row ->
        Buffer.add_string buf (Printf.sprintf "q%-2d |" q);
        Buffer.add_bytes buf row;
        Buffer.add_string buf "|\n")
      rows;
    Buffer.add_string buf
      (Printf.sprintf "     0%*s\n" (width - 1)
         (Printf.sprintf "%d dt" t.makespan));
    Buffer.contents buf
  end
