(** The paper's benchmark registry (§4.1): regular applications and
    commutable-gate QAOA instances, addressable by the names used in
    Tables 1–3. *)

type kind =
  | Regular  (** fixed gate dependence — QS/SR-CaQR regular path *)
  | Commutable of Galg.Graph.t
      (** QAOA: phase gates commute; carries the problem graph *)

type entry = {
  name : string;
  kind : kind;
  circuit : Quantum.Circuit.t;
  description : string;
}

(** [input e] is the engine input of [e]: its circuit when [Regular],
    its problem graph when [Commutable]. *)
val input : entry -> Caqr.Engine.input

(** The regular benchmarks of Table 1: RD-32, 4mod5, Multiply_13,
    System_9, BV_10, CC_10, XOR_5. *)
val regular : unit -> entry list

(** All of Table 1: [regular ()], then the QAOA entries
    "QAOA<n>-0.3" (max-cut on a random graph at density 0.3) for sizes
    5, 10, 15, 20, 25. *)
val table1 : unit -> entry list

(** [find name] looks an entry up in [table1], then in the large
    corpus ({!Large}: qaoa-powerlaw, cuccaro, qft-layered, rand-dyn at
    100–256 qubits, all [Regular], built on demand). Raises
    [Not_found]. *)
val find : string -> entry
