(** The one result type every reuse engine returns.

    QS-CaQR, SR-CaQR, Cone and GidNET are different algorithms, but the
    pipeline, the cross-engine fuzz oracle and the bench all consume the
    same few facts about their output: the circuit, the reuse
    certificate when the engine names one, the width it claims, and
    whether the wall clock cut it short. {!Pipeline.engines} registers
    each engine as a function returning an {!artifact}. *)

(** Input classification: regular circuits carry their dependence in the
    gate order; commutable instances carry the problem graph whose edges
    are freely reorderable phase gates (QAOA). *)
type input =
  | Regular of Quantum.Circuit.t
  | Commutable of Galg.Graph.t

(** One point of a QS-CaQR tradeoff sweep — the same record for regular
    circuits ({!Qs_caqr.sweep}) and commutable instances
    ({!Commute.sweep}). Figs. 3, 13 and 14, Table 1 and the
    [Qs_min_depth] / [Qs_best_fidelity] picks all read this trajectory. *)
type step = {
  usage : int;  (** active qubits of [circuit] *)
  circuit : Quantum.Circuit.t;
      (** the reuse-transformed logical circuit (retired wires empty) *)
  pairs : Reuse.pair list;  (** applied so far, oldest first *)
  depth : int;  (** logical depth of [circuit] *)
}

(** [make_step circuit pairs] computes the step's metrics from
    [circuit]. *)
val make_step : Quantum.Circuit.t -> Reuse.pair list -> step

type artifact = {
  circuit : Quantum.Circuit.t;
      (** the reuse-transformed logical circuit (retired wires left
          empty; callers compact), or the physical circuit when
          [routed] *)
  routed : bool;
      (** [circuit] is already placed and routed on the device (SR's
          lazy mapper reuses physical qubits while routing) *)
  pairs : Reuse.pair list option;
      (** the applied splices, oldest first — a certificate that
          revalidates against the original circuit; [None] when the
          engine names no logical pairs *)
  reuses : int;  (** reuse decisions the engine made *)
  width : int;  (** active qubits the engine claims for [circuit] *)
  slack : int;
      (** wires the width bound tolerates on top of the input width —
          0 for the pair engines, [2 * swaps] for a routed artifact,
          whose footprint counts SWAP-touched wires that are routing
          overhead, not reuse *)
  quality : Quality.t;
      (** {!Quality.Exact} when the engine ran to completion;
          {!Quality.Anytime} when a wall-clock budget trip cut it short
          and [circuit] is its best committed incumbent *)
}

(** [of_pairs ?quality ~width circuit pairs] is the artifact of a pair
    engine: [circuit] is the input transformed by [pairs] and [width] is
    its active-qubit count, which the engine already tracks. [quality]
    defaults to {!Quality.Exact}. *)
val of_pairs :
  ?quality:Quality.t ->
  width:int ->
  Quantum.Circuit.t ->
  Reuse.pair list ->
  artifact
