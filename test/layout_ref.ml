(* Reference initial layout: the implementation that
   [Transpiler.Layout.initial] replaced, kept verbatim as a test oracle.
   It reads the interaction graph as a [Galg.Graph], sorts a list by
   degree and scores each free qubit through a closure over the placed
   neighbours; the flat placement must return the same layout. *)

type t = Transpiler.Layout.t = { l2p : int array; p2l : int array }

let initial device (circuit : Quantum.Circuit.t) =
  let nl = circuit.num_qubits in
  let np = Hardware.Device.num_qubits device in
  if nl > np then invalid_arg "Layout.initial: device too small";
  let inter = Quantum.Circuit.interaction_graph circuit in
  let l2p = Array.make nl (-1) in
  let p2l = Array.make np (-1) in
  let order =
    List.sort
      (fun a b -> compare (Galg.Graph.degree inter b) (Galg.Graph.degree inter a))
      (List.init nl Fun.id)
  in
  let place l p =
    l2p.(l) <- p;
    p2l.(p) <- l
  in
  let free p = p2l.(p) = -1 in
  let best_free score =
    let best = ref (-1) and best_score = ref neg_infinity in
    for p = 0 to np - 1 do
      if free p then begin
        let s = score p in
        if s > !best_score then begin
          best := p;
          best_score := s
        end
      end
    done;
    !best
  in
  List.iter
    (fun l ->
      if l2p.(l) < 0 then begin
        let placed_neighbors =
          List.filter (fun m -> l2p.(m) >= 0) (Galg.Graph.neighbors inter l)
        in
        let score p =
          let dist_penalty =
            List.fold_left
              (fun acc m ->
                acc + Hardware.Device.distance device p l2p.(m))
              0 placed_neighbors
          in
          Hardware.Device.qubit_quality device p
          -. (10. *. float_of_int dist_penalty)
        in
        place l (best_free score)
      end)
    order;
  { l2p; p2l }
