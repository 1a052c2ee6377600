(** Large-circuit workload corpus: deterministic generator families at
    100–1000 qubits, sized to stress the anytime compile path rather
    than fit Table 1.

    Four families, each with guaranteed reuse headroom:

    - [qaoa-powerlaw-<n>] — QAOA max-cut on a sparse power-law graph
      (average degree 3), emitted as a regular circuit with per-vertex
      early measurement so early-finishing wires overlap late-starting
      vertices;
    - [cuccaro-<n>] — a farm of wire-disjoint, time-sequential 15-bit
      Cuccaro adders (32 wires per block): blocks fold onto one
      block's width by construction;
    - [qft-layered-<n>] — sequential 10-qubit QFT blocks on disjoint
      wires, measured per block;
    - [rand-dyn-<n>] — the fuzz generator's dynamic-circuit alphabet
      with its size knobs opened to [n] qubits and ~3n gates at a fixed
      seed.

    Every generator is a pure function of its parameters — the corpus
    is byte-stable across runs, so goldens and bench baselines hold. *)

(** Raw constructors (deterministic given their parameters). *)

val qaoa_powerlaw : seed:int -> int -> Quantum.Circuit.t
val cuccaro_farm : int -> Quantum.Circuit.t
val qft_layered : int -> Quantum.Circuit.t
val rand_dyn : seed:int -> int -> Quantum.Circuit.t

(** One registered large benchmark. [build] constructs the circuit on
    demand so listing names never pays for 1000-qubit construction. *)
type gen = {
  name : string;
  description : string;
  build : unit -> Quantum.Circuit.t;
}

(** The full corpus: qaoa-powerlaw/qft-layered/rand-dyn at {100, 250}
    and cuccaro at {64, 128, 256} — the sizes the 2-second quality dial
    compiles end-to-end with width strictly below baseline. The raw
    generators scale to 1000 qubits. *)
val generators : unit -> gen list

val find_opt : string -> gen option
