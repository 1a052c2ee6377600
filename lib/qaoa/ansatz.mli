(** QAOA max-cut ansatz: per layer, a wall of commuting [Rzz(gamma)] gates
    (one per problem edge) followed by an [Rx(2 beta)] mixer wall. The
    phase-separation gates commute freely — the property QS-CaQR's
    commutable path exploits (paper §3.2.2). *)

(** [circuit problem ~gammas ~betas] builds a [p]-layer ansatz,
    [p = Array.length gammas = Array.length betas], and measures every
    qubit into its own classical bit. *)
val circuit :
  Maxcut.t ->
  gammas:float array ->
  betas:float array ->
  Quantum.Circuit.t

(** Fixed reference parameters for depth/SWAP studies (p = 1,
    gamma = 0.7, beta = 0.3). *)
val reference : Maxcut.t -> Quantum.Circuit.t
