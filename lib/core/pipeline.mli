(** The user-facing CaQR entry points: pick a strategy, get a compiled
    circuit plus the metrics the paper's evaluation reports. *)

(** Re-export of {!Engine.input}: regular circuits or commutable
    (QAOA) problem graphs. *)
type input = Engine.input =
  | Regular of Quantum.Circuit.t
  | Commutable of Galg.Graph.t

type strategy =
  | Baseline  (** no reuse: layout + SABRE routing ("Qiskit O3" stand-in) *)
  | Qs_max_reuse  (** QS-CaQR driven to the fewest qubits *)
  | Qs_min_depth  (** QS-CaQR version with the best compiled depth *)
  | Qs_best_fidelity
      (** QS-CaQR version maximizing estimated success probability
          (the paper's fidelity-tuned objective) *)
  | Qs_target of int  (** QS-CaQR at a user qubit budget *)
  | Sr  (** SR-CaQR lazy mapping *)
  | Cone
      (** causal-cone reuse ({!Cone_caqr}): cone-size measurement
          ordering with lazy allocation and wire recycling *)
  | Gidnet
      (** GidNET reuse ({!Gidnet_caqr}): global chain extraction over
          the candidate-pair graph *)

(** Compilation options, replacing the optional-argument list that
    [compile] used to grow. Build variations with functional update:
    [{ Pipeline.default with verify = Some Verify.Auto }]. *)
type options = {
  verify : Verify.level option;
      (** translation-validate the artifact at this level *)
  seed : int;  (** drives the verification probes (default 1) *)
  jobs : int;
      (** domains for the candidate fan-out via {!Exec.Pool}
          (default 1). The report is byte-identical for every value;
          [jobs > 1] only changes wall-clock time. *)
  fallback : bool;
      (** supervise the compile with the degradation ladder
          (default false): a strategy that raises demotes one rung —
          [Sr] → [Qs_max_reuse] → [Baseline]; [Qs_target _], [Cone] and
          [Gidnet] → [Qs_max_reuse] → [Baseline]; other QS strategies →
          [Baseline]
          — so [compile] returns SOME valid physical circuit, or raises
          a single {!Guard.Error.Guard_error} naming every rung it
          tried. Each demotion is recorded in [report.degraded] and
          bumps the ["guard.ladder.demotions"] counter. A crashing
          validator degrades the verdict to [Inconclusive] instead of
          aborting. Without [fallback], failures propagate exactly as
          before. *)
}

val default : options

(** Stable, human-readable fingerprint of every option field that can
    affect the compiled artifact or report body: every field but [jobs],
    which by the byte-identity contract only changes wall-clock time.
    The compilation service combines this with {!Quantum.Circuit.digest}
    and {!Version.engine} to form its content-addressed cache key. *)
val options_fingerprint : options -> string

(** One rung of the degradation ladder that failed before the strategy
    in [report.strategy] succeeded. *)
type degraded = {
  from_strategy : strategy;
  error : Guard.Error.t;
  backtrace : string;  (** empty when backtrace recording is off *)
}

type report = {
  strategy : strategy;
  logical : Quantum.Circuit.t;  (** after reuse transformation *)
  physical : Quantum.Circuit.t;
  stats : Transpiler.Transpile.stats;
  reuse_pairs : int;
  quality : Quality.t;
      (** {!Quality.Exact} when the reuse engine ran to natural
          completion (always the case for [Baseline] and [Sr]);
          {!Quality.Anytime} when the wall-clock budget (or the QS node
          cap) cut the engine short and the report carries its best
          incumbent instead. Anytime artifacts are fully routed and
          verifiable — only their reuse count may be short of what an
          unbounded run would find. *)
  verification : Verify.verdict option;
      (** translation-validation verdict, present when [compile] was
          asked to verify *)
  degraded : degraded list;
      (** the failures that demoted the compile here, oldest first;
          [[]] unless [options.fallback] kicked in. [strategy] is the
          rung that actually produced the artifact. *)
}

(** [compile ?options device strategy input]. [Qs_target] raises
    [Failure] when the budget is unreachable.

    The deadline is the caller's: [compile] arms none of its own and
    runs under whatever {!Guard.Budget.scoped} budget encloses the
    call (none means unbounded). The reuse-engine phase runs under a
    scoped share (60%) of that budget's remaining time, reserving
    headroom for routing and verification. An engine-phase budget trip is not a failure: the
    anytime engines ([Qs_max_reuse], [Qs_target], [Cone], [Gidnet])
    commit their best-so-far result and the report is tagged
    [quality = Anytime _] — the ladder only demotes on hard errors. A
    trip during routing or verification still raises (and rides the
    ladder when [options.fallback] is set).

    With [options.verify], the compiled artifact is independently
    validated at the requested {!Verify.level} (structural reuse
    conditions, device legality, and — at semantic levels — exact or
    probe-based distribution equivalence against the untransformed
    input); the verdict lands in [report.verification]. [options.seed]
    drives the probe checker so verification is reproducible.

    [compile] neither resets nor snapshots {!Obs.Metrics}: the
    process-global registry is the caller's to reset before the call
    and to read after it (as [caqr_cli --timings] does). *)
val compile :
  ?options:options ->
  Hardware.Device.t ->
  strategy ->
  input ->
  report

(** [compile_all ?options device strategies input] compiles (and, when
    [options.verify] is set, translation-validates) every strategy,
    fanning the strategies out over [options.jobs] domains. The reports
    come back in [strategies] order and are byte-identical to compiling
    each strategy sequentially. *)
val compile_all :
  ?options:options ->
  Hardware.Device.t ->
  strategy list ->
  input ->
  report list

(** [steps input] is the QS-CaQR tradeoff sweep of either input kind:
    {!Qs_caqr.sweep} (with {!Qs_caqr.default_opts}) for a regular
    circuit, {!Commute.sweep} for a commutable one. The first step is
    the untouched input; usages strictly decrease. *)
val steps : input -> Engine.step list

(** One reuse level of the qubit/depth tradeoff sweep, routed. *)
type sweep_row = {
  step : Engine.step;  (** the logical sweep point *)
  physical : Quantum.Circuit.t;
      (** [step.circuit], compacted, laid out and routed *)
  stats : Transpiler.Transpile.stats;  (** of [physical] *)
}

(** [sweep_stats ?jobs device input] — the full tradeoff table
    (paper Figs. 3/13/14): every point of {!steps} routed onto [device],
    with the per-point transpile work spread over [jobs] domains. Rows
    keep sweep order and are identical for every [jobs]. [Qs_min_depth]
    and [Qs_best_fidelity] pick their report from these rows. *)
val sweep_stats : ?jobs:int -> Hardware.Device.t -> input -> sweep_row list

(** The paper's applicability test: does reuse help this input at all?
    Returns a human-readable verdict along with the boolean. *)
val beneficial : Hardware.Device.t -> input -> bool * string

val strategy_name : strategy -> string

(** The named strategies, in display order — the single source of truth
    for the CLI [--strategy] grammar and the service protocol.
    [Qs_target] is the one unnamed family; {!strategy_of_name} parses
    it from ["qs-target-<n>"] or a bare integer budget. *)
val all_strategies : (string * strategy) list

(** Parses {!strategy_name} output (and bare integer budgets) back to a
    strategy: a total round-trip over every variant, pinned by test so a
    future engine cannot be added without wiring both directions. *)
val strategy_of_name : string -> (strategy, string) result

(** The reuse-engine registry: [Qs_max_reuse], [Sr], [Cone] and
    [Gidnet], in that order, each as the function {!compile} runs for
    that strategy (QS with {!Qs_caqr.default_opts}). The cross-engine
    fuzz oracle and the bench's engine matrix iterate this list, so an
    engine registered here is compiled, fuzzed and benchmarked through
    one code path. *)
val engines : (strategy * (Hardware.Device.t -> input -> Engine.artifact)) list
