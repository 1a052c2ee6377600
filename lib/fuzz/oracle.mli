(** Differential oracles — one verdict per (oracle, circuit) pair.

    Each oracle checks one equivalence the compiler promises, by running
    two independent implementations of it and comparing:

    - [Engines]: the cross-engine battery. First {!Caqr.Qs_caqr.sweep}
      and the independent reference {!Qs_ref.sweep} must be
      structurally identical; then the circuit is compiled under every
      engine of the {!Caqr.Pipeline.engines} registry ({!cross_engines})
      and each artifact must be well-formed, its pair certificate must
      revalidate against the original, its sampled output distribution
      must match the original's on the program clbits (inputs of at
      most 6 qubits; for QS that is the circuit
      {!Caqr.Qs_caqr.max_reuse_anytime} ships), and the claimed
      widths must satisfy [min over engines <= each engine <= baseline
      width + slack] — one buggy engine is outvoted by the others;
    - [Verified]: [Pipeline.compile] output must pass [Verify.run]
      (structural conditions + exact-or-probe distribution equivalence);
    - [Roundtrip]: OpenQASM printing must reach a print→parse fixpoint
      in one trip, and the reparse must preserve the gate stream (angles
      up to the printer's truncation).

    An uncaught exception inside an oracle is itself a failure — crashes
    are bugs too. Every run bumps [Obs.Metrics]
    (["fuzz.oracle.<name>.pass" | ".fail"]). *)

type t = Engines | Verified | Roundtrip

type verdict = Pass | Fail of string

val all : t list
val name : t -> string

(** Parses the output of {!name}. *)
val of_name : string -> (t, string) result

(** The {!Caqr.Pipeline.engines} registry as the [Engines] oracle runs
    it: each entry is named by {!Caqr.Pipeline.strategy_name} and
    compiles a regular circuit for [Hardware.Device.heavy_hex_for] its
    width. *)
val cross_engines : (string * (Quantum.Circuit.t -> Caqr.Engine.artifact)) list

(** [check_engines_with ~seed engines c] runs the cross-engine battery
    over an explicit roster — tests inject a deliberately buggy engine
    here and assert it is caught and shrunk. *)
val check_engines_with :
  seed:int ->
  (string * (Quantum.Circuit.t -> Caqr.Engine.artifact)) list ->
  Quantum.Circuit.t ->
  verdict

(** [check oracle ~seed circuit]. The same [(oracle, seed, circuit)]
    triple always returns the same verdict — simulation and probe seeds
    derive from [seed]. *)
val check : t -> seed:int -> Quantum.Circuit.t -> verdict
