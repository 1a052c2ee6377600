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
    not mutated. All logical wires must be mapped. Re-entrant: it runs
    {!route_in} on a copy of the layout and fresh scratch. *)
val route : Hardware.Device.t -> Layout.t -> Quantum.Circuit.t -> result

(** The router's working arrays (the DAG, per-gate endpoint, in-degree
    and stamp arrays, the frontier, pair tables and lookahead queue, the
    stalled SWAPs) and its output kinds, kept across calls. *)
type scratch

(** Empty buffers. *)
val scratch : unit -> scratch

(** [route_in s device layout ~wire ~width circuit] routes [circuit] on
    [s]'s buffers and returns the physical circuit and the SWAPs added.
    Wire [q] of [circuit] is logical qubit [wire.(q)] of the [width]
    that [layout] places, and [layout] is moved in place to the final
    layout. The physical circuit shares nothing with [s]. *)
val route_in :
  scratch ->
  Hardware.Device.t ->
  Layout.t ->
  wire:int array ->
  width:int ->
  Quantum.Circuit.t ->
  Quantum.Circuit.t * int
