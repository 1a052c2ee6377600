(** Reusable kernel buffers.

    A kernel that would allocate its working arrays on every call takes
    them from buffers instead. A buffer hands out an array at least as
    long as asked for and keeps it for the next request, so a buffer
    that lives across calls grows to the largest size asked for and
    then allocates nothing. The contents of a handed-out array are
    unspecified: a kernel writes every element it reads before reading
    it, so a call that raised half way leaves nothing a later call
    sees. *)

(** Arrays of at most this many elements (bytes: eight times as many)
    are kept; a larger request is served by an array the buffer drops,
    so one oversized input never stays resident. 16,384 elements is
    128 KiB of words. *)
val retain_max : int

type 'a t

(** [make x] is an empty buffer whose new arrays are filled with [x].
    Its first {!get} is a new array of exactly the length asked for. *)
val make : 'a -> 'a t

(** [get b n] is an array of length at least [n]. *)
val get : 'a t -> int -> 'a array

(** [grow b a len] is an array from [b] longer than [a] whose first
    [len] elements are [a]'s: a growable stack's next backing array. *)
val grow : 'a t -> 'a array -> int -> 'a array

(** [clear b n] overwrites the first [n] elements of the array [b]
    keeps with [b]'s fill value, so values a kernel stored there (boxed
    gate kinds, say) stop being reachable through [b]. It allocates
    nothing. *)
val clear : 'a t -> int -> unit

type bytes

val bytes : unit -> bytes

(** [get_bytes b n] is a byte string of length at least [n]. *)
val get_bytes : bytes -> int -> Bytes.t
