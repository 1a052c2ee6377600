(** Parser for the OpenQASM 3 subset that {!Qasm} emits (plus the common
    OpenQASM 2 measurement spelling), so circuits survive a round trip
    through their textual form and external tools can feed circuits in:

    - [qubit[n] q;] / [bit[n] c;] declarations (also [qreg]/[creg]),
    - gates [h x y z s sdg t tdg sx], [rx(a) ry(a) rz(a) p(a)],
      [cx cz swap], [rzz(a)],
    - [c[i] = measure q[j];] and [measure q[j] -> c[i];],
    - [reset q[i];], [if (c[i]) x q[j];], [barrier q[...], ...;],
    - [OPENQASM ...;] and [include ...;] headers (ignored), [//] comments.

    Angles accept float literals and [pi] expressions ([pi/2], [2*pi],
    [-pi]).

    One pass scans the text; a statement already in normal form (no
    comment, newline or double space inside) is read in place, so a
    parse allocates little beyond the circuit it returns. *)

(** [parse text] parses a program. On unsupported or malformed input the
    structured error's [detail] pinpoints the statement with a 1-based
    ["line L, col C"] prefix (the column of the statement's first
    non-blank character); gate-operand range violations detected at
    circuit construction are converted too, so [parse] never raises on
    bad input. *)
val parse : string -> (Circuit.t, Guard.Error.t) result

(** Thin raising wrapper over {!parse} for legacy callers: raises
    [Failure] with the same line/column-numbered message. *)
val of_string : string -> Circuit.t
