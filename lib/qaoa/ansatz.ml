let circuit (problem : Maxcut.t) ~gammas ~betas =
  let p = Array.length gammas in
  if p <> Array.length betas then invalid_arg "Ansatz.circuit: layer mismatch";
  let n = Galg.Graph.order problem.Maxcut.graph in
  let b = Quantum.Circuit.Builder.create ~num_qubits:n ~num_clbits:n in
  for q = 0 to n - 1 do
    Quantum.Circuit.Builder.h b q
  done;
  for layer = 0 to p - 1 do
    List.iter
      (fun (u, v) -> Quantum.Circuit.Builder.rzz b gammas.(layer) u v)
      (Galg.Graph.edges problem.Maxcut.graph);
    for q = 0 to n - 1 do
      Quantum.Circuit.Builder.rx b (2. *. betas.(layer)) q
    done
  done;
  for q = 0 to n - 1 do
    Quantum.Circuit.Builder.measure b q q
  done;
  Quantum.Circuit.Builder.build b

let reference problem =
  circuit problem ~gammas:[| 0.7 |] ~betas:[| 0.3 |]
