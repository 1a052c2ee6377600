(** The shared result type of every checker in the translation-validation
    subsystem. A verdict is deliberately three-valued: checkers are sound
    ([Inequivalent] always means a real discrepancy in what they model)
    but not complete, and they say so with [Inconclusive] instead of
    guessing. *)

type counterexample = {
  outcome : int;
      (** Classical outcome (shared-clbit value) where the distributions
          disagree, or [-1] when the witness is structural rather than a
          distribution point. *)
  p_left : float;  (** probability under the original circuit *)
  p_right : float;  (** probability under the transformed circuit *)
  detail : string;  (** human-readable description of the violation *)
}

type t =
  | Equivalent
  | Inequivalent of counterexample
  | Inconclusive of string

(** Structural witness: no distribution point, just an explanation. *)
val violation : string -> t

(** Printf-style [violation]. *)
val violationf : ('a, unit, string, t) format4 -> 'a

val inconclusivef : ('a, unit, string, t) format4 -> 'a

val is_equivalent : t -> bool
val is_inequivalent : t -> bool

(** Fold verdicts: any [Inequivalent] dominates (the first one is kept),
    then any [Inconclusive], else [Equivalent]. *)
val combine : t list -> t

(** One-line rendering, e.g. for CLI tables. *)
val to_string : t -> string
