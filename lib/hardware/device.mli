(** A device bundles a coupling map with calibration and distance data —
    everything SR-CaQR and the baseline transpiler query: adjacency,
    distances, per-link CNOT cost, per-qubit readout quality (paper
    §3.3.1 Step 2).

    The routing hot loops read flat tables built once per device (and
    rebuilt by {!with_noise_scale}) instead of the graph and the
    calibration maps: [nbrs.(u)] lists [u]'s neighbours in increasing
    order, [nbr_error.(u).(i)] and [nbr_duration.(u).(i)] are the CNOT
    error and duration of the link [u]–[nbrs.(u).(i)], and [quality.(p)]
    is {!qubit_quality}[ t p]. *)

type t = private {
  coupling : Galg.Graph.t;
  calibration : Calibration.t;
  dist : int array array;
  nbrs : int array array;
  nbr_error : float array array;
  nbr_duration : int array array;
  quality : float array;
}

(** Synthetic IBM Mumbai: 27-qubit Falcon heavy-hex with seeded calibration.
    One value per process, shared by every caller: never mutate it (its
    [coupling] graph and tables included). *)
val mumbai : t

(** Heavy-hex device with at least [n] qubits and synthetic calibration;
    [mumbai] when [n <= 27]. Up to 327 qubits (the 8x8 grid, the largest
    the benchmark registry and the large corpus use) a width's device is
    built once per process, then shared: [heavy_hex_for n ==
    heavy_hex_for n], also when two domains race the first call. Widths
    that fit the same heavy-hex grid share its [coupling], [nbrs] and
    [dist] (the calibration, link tables and [quality] are the width's
    own). Resident memory is one O(n²) distance table per grid plus
    O(n + links) per width asked for; the per-width part dominates when
    many widths share a grid, and every width from 28 to 327 together
    holds about 2.1M words (17 MB). A wider device is built afresh on
    every call and not kept. A returned device must never be mutated. *)
val heavy_hex_for : int -> t

(** 327: the widest device {!heavy_hex_for} keeps. The compilation
    service refuses inline programs wider than this. *)
val memo_max_width : int

(** Ideal (noise-free) device over a coupling graph. *)
val ideal : Galg.Graph.t -> t

(** [with_noise_scale factor t] rescales every error rate (see
    {!Calibration.scale}); topology and durations are unchanged. *)
val with_noise_scale : float -> t -> t

val num_qubits : t -> int
val adjacent : t -> int -> int -> bool
val distance : t -> int -> int -> int
val neighbors : t -> int -> int list

(** [link_index t u v] is the position of [v] in [nbrs.(u)], so the
    link's data is [nbr_error.(u).(i)] and [nbr_duration.(u).(i)]; -1
    when [u] and [v] are not adjacent. Allocates nothing. *)
val link_index : t -> int -> int -> int

(** CNOT duration in dt on a link (falls back to the default model when the
    qubits are not adjacent — callers route first). *)
val cx_duration : t -> int -> int -> int

(** Device-aware duration of a gate on physical qubits: CX, CZ and RZZ
    take the link's {!cx_duration}, a SWAP three times that, every other
    gate its {!Quantum.Duration.default} length. The one duration rule
    behind physical durations, ESP and the noise model's idle windows. *)
val gate_duration : t -> Quantum.Gate.kind -> int

val cx_error : t -> int -> int -> float
val readout_error : t -> int -> float

(** A quality score for mapping a fresh logical qubit onto physical [p]:
    higher is better — combines connectivity, readout fidelity, and the
    best incident CNOT fidelity. *)
val qubit_quality : t -> int -> float
