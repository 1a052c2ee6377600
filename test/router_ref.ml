(* Reference SWAP router: the list-based implementation that
   [Transpiler.Router] replaced, kept as a test oracle. It rescans every
   front and lookahead pair for every candidate SWAP and rebuilds the
   lookahead set at every SWAP; the production router must reproduce its
   physical circuit, SWAP count and final layout wherever this one
   finishes within its step budget. It has no release valve, so it can
   livelock (and then trips the budget). *)

module Layout = Transpiler.Layout

let lookahead_window = 12
let lookahead_weight = 0.5

let route device layout (circuit : Quantum.Circuit.t) =
  let layout = Layout.copy layout in
  let dag = Dag_ref.build circuit in
  let n = Quantum.Dag.num_nodes dag in
  let indeg = Array.init n (Quantum.Dag.in_degree dag) in
  let done_ = Array.make n false in
  let frontier = ref (List.filter (fun i -> indeg.(i) = 0) (List.init n Fun.id)) in
  let out =
    Quantum.Circuit.Builder.create
      ~num_qubits:(Hardware.Device.num_qubits device)
      ~num_clbits:circuit.num_clbits
  in
  let swaps = ref 0 in
  let gate_kind i = circuit.gates.(i).Quantum.Gate.kind in
  let complete i =
    done_.(i) <- true;
    Quantum.Dag.iter_succs
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then frontier := j :: !frontier)
      dag i
  in
  let phys q = layout.Layout.l2p.(q) in
  let executable i =
    let k = gate_kind i in
    if Quantum.Gate.is_two_q k then
      match Quantum.Gate.qubits k with
      | [ a; b ] -> Hardware.Device.adjacent device (phys a) (phys b)
      | _ -> true
    else true
  in
  let emit i =
    let k = Quantum.Gate.map_qubits phys (gate_kind i) in
    Quantum.Circuit.Builder.add out k;
    complete i
  in
  (* Two-qubit gates beyond the frontier, for lookahead scoring. *)
  let extended_set () =
    let acc = ref [] and count = ref 0 in
    let q = Queue.create () in
    List.iter (fun i -> Queue.add i q) !frontier;
    let seen = Hashtbl.create 32 in
    while (not (Queue.is_empty q)) && !count < lookahead_window do
      let i = Queue.pop q in
      if not (Hashtbl.mem seen i) then begin
        Hashtbl.add seen i ();
        (match Quantum.Gate.qubits (gate_kind i) with
         | [ a; b ] when Quantum.Gate.is_two_q (gate_kind i) ->
           acc := (a, b) :: !acc;
           incr count
         | _ -> ());
        Quantum.Dag.iter_succs (fun j -> Queue.add j q) dag i
      end
    done;
    !acc
  in
  let dist a b = Hardware.Device.distance device a b in
  let last_swap = ref (-1, -1) in
  let progress = ref true in
  (* A diverging search trips the step budget as a typed, recoverable
     error instead of an untyped failwith; the same ticker also honours
     any cooperative wall-clock deadline. *)
  let swap_budget = (100 * n) + 1000 in
  let tick =
    Guard.Budget.ticker ~stage:"transpiler.router" ~site:"route.swap"
      ~limit:swap_budget ()
  in
  while !frontier <> [] do
    tick ();
    if not !progress then begin
      (* Blocked: every frontier gate is a non-adjacent two-qubit gate.
         Choose the best swap among edges incident to frontier qubits. *)
      let front_pairs =
        List.filter_map
          (fun i ->
            match Quantum.Gate.qubits (gate_kind i) with
            | [ a; b ] when Quantum.Gate.is_two_q (gate_kind i) -> Some (a, b)
            | _ -> None)
          !frontier
      in
      let ext = extended_set () in
      let score_mapping phys_of =
        let front =
          List.fold_left
            (fun acc (a, b) -> acc + dist (phys_of a) (phys_of b))
            0 front_pairs
        in
        let look =
          List.fold_left
            (fun acc (a, b) -> acc + dist (phys_of a) (phys_of b))
            0 ext
        in
        float_of_int front +. (lookahead_weight *. float_of_int look)
      in
      let candidates =
        List.concat_map
          (fun (a, b) ->
            let edges_of q =
              List.map (fun nb -> (phys q, nb)) (Hardware.Device.neighbors device (phys q))
            in
            edges_of a @ edges_of b)
          front_pairs
      in
      let best = ref None in
      List.iter
        (fun (p1, p2) ->
          if (p1, p2) <> !last_swap && (p2, p1) <> !last_swap then begin
            let phys_of q =
              let p = phys q in
              if p = p1 then p2 else if p = p2 then p1 else p
            in
            let s =
              score_mapping phys_of
              (* error-aware tie-break: prefer low-error links *)
              +. 0.01
                 *. (Hardware.Calibration.link device.Hardware.Device.calibration
                       p1 p2)
                      .Hardware.Calibration.cx_error
            in
            match !best with
            | Some (_, _, s') when s' <= s -> ()
            | _ -> best := Some (p1, p2, s)
          end)
        candidates;
      (match !best with
       | Some (p1, p2, _) ->
         Quantum.Circuit.Builder.swap out p1 p2;
         Layout.apply_swap layout p1 p2;
         incr swaps;
         last_swap := (p1, p2)
       | None ->
         (* Only the undone inverse of the last swap remains; allow it. *)
         last_swap := (-1, -1))
    end;
    progress := false;
    let rec drain () =
      let ready, blocked = List.partition executable !frontier in
      if ready <> [] then begin
        progress := true;
        last_swap := (-1, -1);
        frontier := blocked;
        List.iter emit ready;
        drain ()
      end
    in
    drain ()
  done;
  {
    Transpiler.Router.physical = Quantum.Circuit.Builder.build out;
    swaps_added = !swaps;
    final_layout = layout;
  }
