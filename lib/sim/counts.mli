(** Measurement-outcome histograms and the total variation distance (TVD)
    metric the paper reports in Table 3. Outcomes are classical-register
    values (little-endian ints over the circuit's clbits). *)

type t

val create : num_clbits:int -> t
val add : t -> int -> unit
val total : t -> int
val get : t -> int -> int

(** All [(outcome, count)] pairs, sorted by outcome — a canonical form
    for byte-level determinism comparisons. *)
val to_list : t -> (int * int) list

(** Same width and same per-outcome counts. *)
val equal : t -> t -> bool

(** [merge a b] sums per-outcome counts. Associative and commutative
    with [create] as identity — the algebra the execution pool's
    shot-splitting relies on. Raises [Invalid_argument] when the clbit
    widths differ. *)
val merge : t -> t -> t

(** Outcome frequencies as a probability map (only nonzero entries). *)
val to_probs : t -> (int * float) list

(** [of_probs ~num_clbits probs] builds pseudo-counts from an exact
    distribution (scaled to [shots]). *)
val of_probs : num_clbits:int -> shots:int -> (int * float) list -> t

(** Total variation distance: [0.5 * sum_x |p(x) - q(x)|], in [0, 1]. *)
val tvd : t -> t -> float

(** Probability mass on a single outcome — "success rate" when the ideal
    output is a known bitstring. *)
val success_rate : t -> int -> float

(** Expectation of [f outcome] under the empirical distribution. *)
val expectation : t -> (int -> float) -> float

(** Most frequent outcome, [None] when empty. *)
val top : t -> int option

val pp : Format.formatter -> t -> unit
