(** Reference QS-CaQR search: the differential check for
    {!Caqr.Qs_caqr.sweep}.

    It shares none of the incremental machinery. Every DFS node rebuilds
    the circuit ({!Caqr.Reuse.apply}) and a fresh analysis of it
    ({!Caqr.Reuse.analyze}, reach rows included) from scratch, and candidates are ordered by
    a plain comparator sort. Nothing is memoized: no prefix memo, no
    transposition replay, no width floor. Its descent and its [Both]
    fallback are its own, written on the public {!Caqr.Reuse} and
    {!Caqr.Engine} API only. The tests, the [engines] fuzz oracle and
    the bench's perf headline compare against it. It bumps
    ["qs.search.nodes"] once per DFS node, as the real search does, and
    ignores wall-clock budgets. *)

(** [sweep ?opts circuit] is the trajectory [Caqr.Qs_caqr.sweep ?opts
    circuit] must reproduce: the untouched circuit, then one row per
    qubit target reached, descending from one below the input's usage
    until a search fails. *)
val sweep :
  ?opts:Caqr.Qs_caqr.search_opts -> Quantum.Circuit.t -> Caqr.Engine.step list
