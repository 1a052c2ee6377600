(** Reference QS-CaQR search: the differential check for
    {!Caqr.Qs_caqr.sweep} and {!Caqr.Qs_caqr.search_anytime}.

    It shares none of the incremental machinery. Every DFS node rebuilds
    the circuit ({!Caqr.Reuse.apply}) and a fresh analysis of it
    ({!Caqr.Reuse.analyze}, reach rows included) from scratch, and candidates are ordered by
    a plain comparator sort. Nothing is carried between searches: every
    qubit target starts a fresh DFS from the input circuit, with no
    transposition replay and no width floor. Its descent and its [Both]
    fallback are its own, written on the public {!Caqr.Reuse} and
    {!Caqr.Engine} API only. The tests, the [engines] fuzz oracle and
    the bench's perf headline compare against it. It bumps
    ["qs.search.nodes"] once per DFS node, as the real search counts
    them, and ignores wall-clock budgets. *)

(** [search ?opts ~target circuit] is the answer
    [Caqr.Qs_caqr.search_anytime ?opts ~target circuit] must give with
    no deadline armed: the first circuit the budgeted DFS finds with at
    most [target] active qubits, with its applied pairs (oldest first),
    or [None] when the search exhausts its space or its node cap. *)
val search :
  ?opts:Caqr.Qs_caqr.search_opts ->
  target:int ->
  Quantum.Circuit.t ->
  (Quantum.Circuit.t * Caqr.Reuse.pair list) option

(** [sweep ?opts circuit] is the trajectory [Caqr.Qs_caqr.sweep ?opts
    circuit] must reproduce: the untouched circuit, then one row per
    qubit target reached, descending from one below the input's usage
    until a search fails. *)
val sweep :
  ?opts:Caqr.Qs_caqr.search_opts -> Quantum.Circuit.t -> Caqr.Engine.step list
