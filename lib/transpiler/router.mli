(** SWAP-insertion routing, SABRE-flavoured: schedule every dependence-free
    gate that is hardware-compliant; when blocked, insert the SWAP that
    most reduces the summed front-layer distance, with a lookahead window
    and an error-aware tie-break. This is the baseline Qiskit-O3 stand-in
    (DESIGN.md substitutions).

    A stall that runs to 10 SWAPs per device qubit without routing a gate
    is a livelock: SABRE's release valve undoes those SWAPs and walks the
    closest blocked front pair together along a shortest path (counter
    ["route.release_valve"]). DESIGN.md "Routing kernel" explains the
    incremental scoring (counter ["route.pair_scores"]). *)

type result = {
  physical : Quantum.Circuit.t;  (** wires are device qubits *)
  swaps_added : int;
  final_layout : Layout.t;
}

(** [route device layout circuit] routes a logical circuit. The layout is
    not mutated. All logical wires must be mapped. Re-entrant: all scratch
    state is local to the call. *)
val route : Hardware.Device.t -> Layout.t -> Quantum.Circuit.t -> result
