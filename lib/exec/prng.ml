(* SplitMix64 (Steele, Lea & Flood 2014): a 64-bit counter stepped by the
   golden-ratio increment, finalized by a xor-shift-multiply mix. Trivially
   splittable — a child stream is just a different origin — and identical
   on every OCaml version, unlike [Stdlib.Random]. *)

type t = { origin : int64; mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_origin o = { origin = o; state = o }
let make seed = of_origin (mix (Int64.add (Int64.of_int seed) golden))

let split t i =
  (* A distinct odd multiplier keeps child origins off the parent's own
     golden-ratio orbit. *)
  of_origin
    (mix (Int64.logxor t.origin (Int64.mul (Int64.of_int (i + 1)) 0xD1B54A32D192ED03L)))

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* 63 uniform bits modulo the bound; the bias is < bound / 2^63. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 1) (Int64.of_int bound))

let float t hi =
  hi *. Int64.to_float (Int64.shift_right_logical (bits64 t) 11) /. 9007199254740992.

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc + max 0 w) 0 choices in
  if total <= 0 then invalid_arg "Prng.weighted: no positive weight";
  let k = int t total in
  let rec pick acc = function
    | [] -> invalid_arg "Prng.weighted: unreachable"
    | (w, v) :: rest ->
      let acc = acc + max 0 w in
      if k < acc then v else pick acc rest
  in
  pick 0 choices
