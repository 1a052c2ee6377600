(** Peephole circuit optimization, the gate-level cleanup a production
    transpiler (e.g. Qiskit at optimization level 3) performs before
    routing:

    - adjacent self-inverse pairs cancel (H·H, X·X, Y·Y, Z·Z, CX·CX,
      CZ·CZ, SWAP·SWAP on identical operands, S·Sdg, T·Tdg),
    - consecutive rotations about the same axis on the same qubit fuse
      (Rz·Rz, Rx·Rx, Ry·Ry, Phase·Phase, Rzz·Rzz on the same pair),
    - rotations by (multiples of) 2*pi and empty fusions are dropped.

    Two gates are "adjacent" when no other gate touches any of their
    wires in between, so the pass is semantics-preserving by
    construction. Dynamic operations (measure, reset, conditional X) are
    barriers for their wires. Runs to a fixpoint. *)

(** [peephole circuit] returns the optimized circuit; gate count never
    increases and the output distribution is unchanged. *)
val peephole : Circuit.t -> Circuit.t

(** [elide_swaps circuit] removes every SWAP by relabeling all later
    references to its two wires — the virtual-swap trick. The result has
    the same outcome distribution over clbits (a SWAP only permutes
    which wire carries which state) but wires that carried nothing but
    routing traffic fall idle, so a routed circuit compacts back toward
    its logical width. Meant for simulation and verification, not for
    execution: the output ignores device connectivity. *)
val elide_swaps : Circuit.t -> Circuit.t
