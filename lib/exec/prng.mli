(** Splittable deterministic pseudo-random stream (SplitMix64).

    The fuzzer and the execution pool need two things [Stdlib.Random]
    does not give them: a stream that can be forked per task so every
    task is replayable from [(seed, index)] alone — independent of how
    many draws earlier tasks consumed and of which domain runs it — and
    bit-for-bit stability across OCaml versions (the stdlib generator
    changed algorithms in 5.0). *)

type t

(** [make seed] starts a stream. Equal seeds yield equal streams. *)
val make : int -> t

(** [split t i] is child stream [i] of [t], derived from [t]'s origin
    only: it is unaffected by (and does not affect) draws on [t], so
    case [i] replays identically whatever ran before it. *)
val split : t -> int -> t

(** The raw 64-bit draw the other samplers are built on. *)
val bits64 : t -> int64

(** [int t bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] when [bound <= 0]. *)
val int : t -> int -> int

(** [float t hi] draws uniformly from [0, hi). *)
val float : t -> float -> float

(** [weighted t choices] picks among [(weight, value)] pairs with
    probability proportional to [weight]; non-positive weights never
    win. Raises [Invalid_argument] on an empty or all-zero list. *)
val weighted : t -> (int * 'a) list -> 'a
