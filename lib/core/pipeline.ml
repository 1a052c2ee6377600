type input = Engine.input =
  | Regular of Quantum.Circuit.t
  | Commutable of Galg.Graph.t

type strategy =
  | Baseline
  | Qs_max_reuse
  | Qs_min_depth
  | Qs_best_fidelity
  | Qs_target of int
  | Sr
  | Cone
  | Gidnet

type options = {
  verify : Verify.level option;
  seed : int;
  jobs : int;
      (* Domains for the candidate fan-out (Exec.Pool). Any value
         produces byte-identical reports; >1 only changes wall clock. *)
  fallback : bool;
      (* Supervise the compile with the degradation ladder: a failing
         strategy demotes toward Baseline instead of raising. *)
}

let default = { verify = None; seed = 1; jobs = 1; fallback = false }

type degraded = {
  from_strategy : strategy;
  error : Guard.Error.t;
  backtrace : string;
}

type report = {
  strategy : strategy;
  logical : Quantum.Circuit.t;
  physical : Quantum.Circuit.t;
  stats : Transpiler.Transpile.stats;
  reuse_pairs : int;
  quality : Quality.t;
  verification : Verify.verdict option;
  degraded : degraded list;
}

let strategy_name = function
  | Baseline -> "baseline"
  | Qs_max_reuse -> "qs-max-reuse"
  | Qs_min_depth -> "qs-min-depth"
  | Qs_best_fidelity -> "qs-best-fidelity"
  | Qs_target n -> Printf.sprintf "qs-target-%d" n
  | Sr -> "sr"
  | Cone -> "cone"
  | Gidnet -> "gidnet"

(* The one strategy grammar. The CLI --strategy flag and the service
   protocol both delegate here, so a future engine cannot be wired into
   one front end and silently missing from the other; the exhaustive
   round-trip with {!strategy_name} is pinned in test_strategy_names. *)
let all_strategies =
  [
    ("baseline", Baseline);
    ("qs-max-reuse", Qs_max_reuse);
    ("qs-min-depth", Qs_min_depth);
    ("qs-best-fidelity", Qs_best_fidelity);
    ("sr", Sr);
    ("cone", Cone);
    ("gidnet", Gidnet);
  ]

let strategy_of_name s =
  match List.assoc_opt s all_strategies with
  | Some st -> Ok st
  | None ->
    let budget =
      match int_of_string_opt s with
      | Some n -> Some n
      | None ->
        (* [strategy_name (Qs_target n)] prints "qs-target-<n>"; parsing
           it back keeps the name map a bijection on every variant. *)
        let prefix = "qs-target-" in
        let pl = String.length prefix in
        if String.length s > pl && String.sub s 0 pl = prefix then
          int_of_string_opt (String.sub s pl (String.length s - pl))
        else None
    in
    (match budget with
     | Some n -> Ok (Qs_target n)
     | None ->
       Error
         (Printf.sprintf "unknown strategy %S (expected %s | qs-target-<n> | <qubit budget>)"
            s
            (String.concat " | " (List.map fst all_strategies))))

(* Every field but [jobs] lands in the fingerprint: the pool is
   byte-identical for any value, so a warm cache survives a [--jobs]
   change. *)
let options_fingerprint o =
  Printf.sprintf "opts/2;verify=%s;seed=%d;fallback=%b"
    (match o.verify with
     | None -> "none"
     | Some l -> Verify.level_name l)
    o.seed o.fallback

let logical_of_input = function
  | Regular c -> c
  | Commutable g -> Commute.emit (Commute.make g)

(* The tradeoff sweep of either input kind. The steps keep their
   applied pairs, which feed the structural translation validator. *)
let steps = function
  | Regular c -> Qs_caqr.sweep c
  | Commutable g -> Commute.sweep g

(* Share of the remaining wall budget granted to the reuse engine; the
   rest is reserved for routing and verification, which must complete
   even on an anytime (partial) engine result — a budget trip *after*
   the engine is a hard error and rides the ladder as before. *)
let engine_share = 0.6

let scoped_engine f = Guard.Budget.scoped (Guard.Budget.fraction engine_share) f

let unreachable target =
  failwith (Printf.sprintf "Pipeline.compile: cannot reach %d qubits" target)

(* The pair engines run on [original], the emitted circuit of a
   commutable input, but there the pairs transform the *emitted*
   circuit, not the problem graph — the commutable structural checker
   would misread them, so only regular inputs surface pairs. *)
let pair_engine run ~original input =
  let a = scoped_engine (fun () -> run original) in
  match input with
  | Regular _ -> a
  | Commutable _ -> { a with Engine.pairs = None }

(* SR's lazy mapper reuses physical qubits as a side effect of routing
   and never names logical pairs. Its width claim is the physical qubits
   the mapper touched, which includes the wires each inserted SWAP pulls
   in — routing overhead the width bound must tolerate, not reuse. *)
let sr_engine device input =
  let r =
    match input with
    | Regular c -> Sr_caqr.regular device c
    | Commutable g -> Sr_caqr.commutable device g
  in
  {
    Engine.circuit = r.Sr_caqr.physical;
    routed = true;
    pairs = None;
    reuses = r.Sr_caqr.reuses;
    width = r.Sr_caqr.qubits_used;
    slack = 2 * r.Sr_caqr.swaps_added;
    quality = Quality.Exact;
  }

let of_step (s : Engine.step) = Engine.of_pairs ~width:s.usage s.circuit s.pairs

(* Every reuse strategy that produces one artifact, as an engine.
   [original] is [logical_of_input input], which the caller has already
   built. The anytime engines run under [scoped_engine]. *)
let engine ~original strategy device input =
  match (strategy, input) with
  | Qs_max_reuse, Regular c ->
    scoped_engine (fun () -> Qs_caqr.max_reuse_anytime c)
  | Qs_max_reuse, Commutable _ ->
    (match List.rev (steps input) with
     | step :: _ -> of_step step
     | [] -> invalid_arg "Pipeline.compile: empty sweep")
  | Qs_target target, Regular c ->
    (match
       scoped_engine (fun () -> Qs_caqr.search_anytime ~target c)
     with
     | Some a -> a
     | None -> unreachable target)
  | Qs_target target, Commutable _ ->
    (match
       List.find_opt
         (fun (s : Engine.step) -> s.usage <= target)
         (steps input)
     with
     | Some step -> of_step step
     | None -> unreachable target)
  | Sr, _ -> sr_engine device input
  | Cone, _ -> pair_engine Cone_caqr.run ~original input
  | Gidnet, _ -> pair_engine Gidnet_caqr.run ~original input
  | (Baseline | Qs_min_depth | Qs_best_fidelity), _ ->
    invalid_arg "Pipeline.engine: not a single reuse engine"

let engines =
  List.map
    (fun s ->
      ( s,
        fun device input ->
          engine ~original:(logical_of_input input) s device input ))
    [ Qs_max_reuse; Sr; Cone; Gidnet ]

let make_report strategy logical ~physical ~stats ~reuse_pairs ~quality =
  {
    strategy;
    logical;
    physical;
    stats;
    reuse_pairs;
    quality;
    verification = None;
    degraded = [];
  }

(* Route a logical circuit (retired wires left empty) with the baseline
   mapper. *)
let route device logical =
  let compacted, _ = Quantum.Circuit.compact_qubits logical in
  Transpiler.Transpile.run device compacted

let finish device strategy logical ~reuse_pairs ~quality =
  let r = route device logical in
  make_report strategy logical ~physical:r.Transpiler.Transpile.physical
    ~stats:r.Transpiler.Transpile.stats ~reuse_pairs ~quality

(* A pair engine's logical circuit is routed with the baseline mapper; a
   routed artifact already is the physical circuit. *)
let report_of_artifact device strategy ~original (a : Engine.artifact) =
  let report =
    if a.Engine.routed then
      make_report strategy original ~physical:a.Engine.circuit
        ~stats:(Transpiler.Transpile.stats_of device a.Engine.circuit)
        ~reuse_pairs:a.Engine.reuses ~quality:a.Engine.quality
    else
      finish device strategy a.Engine.circuit ~reuse_pairs:a.Engine.reuses
        ~quality:a.Engine.quality
  in
  (report, a.Engine.pairs)

(* One row per reuse level of the tradeoff sweep. *)
type sweep_row = {
  step : Engine.step;
  physical : Quantum.Circuit.t;
  stats : Transpiler.Transpile.stats;
}

(* The sweep points are independent (transpile + stats each), so they
   fan out across the pool; rows keep sweep order, which keeps the
   downstream picks deterministic. *)
let sweep_stats ?(jobs = 1) device input =
  Exec.Pool.map ~jobs:(max 1 jobs)
    (fun (step : Engine.step) ->
      let r = route device step.circuit in
      {
        step;
        physical = r.Transpiler.Transpile.physical;
        stats = r.Transpiler.Transpile.stats;
      })
    (steps input)

(* [key] ranks a row once; [better] orders the keys, and the first row
   with the best key wins, as in a stable sort. *)
let best_of_sweep ~jobs device strategy input key better =
  let ranked = List.map (fun r -> (key r, r)) (sweep_stats ~jobs device input) in
  match ranked with
  | first :: rest ->
    let _, r =
      List.fold_left (fun b c -> if better (fst c) (fst b) < 0 then c else b) first rest
    in
    ( make_report strategy r.step.circuit ~physical:r.physical ~stats:r.stats
        ~reuse_pairs:(List.length r.step.pairs) ~quality:Quality.Exact,
      Some r.step.pairs )
  | [] -> invalid_arg "Pipeline.compile: empty sweep"

let compile_unverified ~jobs device strategy input ~original =
  match strategy with
  | Baseline ->
    (* [original] itself, not a re-derived copy: the verifier skips the
       logical-vs-original comparison only when they are the same
       value. *)
    (finish device strategy original ~reuse_pairs:0 ~quality:Quality.Exact,
     Some [])
  | Qs_min_depth ->
    best_of_sweep ~jobs device strategy input
      (fun r -> r.stats.Transpiler.Transpile.depth)
      compare
  | Qs_best_fidelity ->
    (* The paper's tunable objective: pick the reuse level whose compiled
       circuit maximizes estimated success probability. *)
    best_of_sweep ~jobs device strategy input
      (fun r -> Transpiler.Esp.of_circuit device r.physical)
      (fun a b -> compare b a)
  | Qs_max_reuse | Qs_target _ | Sr | Cone | Gidnet ->
    report_of_artifact device strategy ~original
      (engine ~original strategy device input)

(* The degradation ladder (most capable first): a reuse strategy that
   blows up demotes to the cheaper reuse search, which demotes to plain
   layout-and-route. The last rung is always Baseline — under [fallback]
   a compile either returns SOME valid physical circuit or dies with one
   structured error naming every rung it tried. *)
let ladder = function
  | Sr -> [ Sr; Qs_max_reuse; Baseline ]
  | Qs_target n -> [ Qs_target n; Qs_max_reuse; Baseline ]
  | (Cone | Gidnet) as s -> [ s; Qs_max_reuse; Baseline ]
  | (Qs_max_reuse | Qs_min_depth | Qs_best_fidelity) as s -> [ s; Baseline ]
  | Baseline -> [ Baseline ]

let verify_report ~options ~original device input pairs report =
  match options.verify with
  | None -> report
  | Some level ->
    let subject =
      {
        Verify.original;
        logical = report.logical;
        physical = report.physical;
        device;
        pairs =
          Option.map
            (List.map (fun (p : Reuse.pair) ->
                 { Verify.Structural.src = p.Reuse.src; dst = p.Reuse.dst }))
            pairs;
        commutable =
          (match input with Commutable g -> Some g | Regular _ -> None);
      }
    in
    let verdict =
      if not options.fallback then Verify.run ~seed:options.seed level subject
      else
        (* A crashing validator must not take down a compile that already
           produced an artifact; an unverified artifact is [Inconclusive],
           never silently "equivalent". *)
        match
          Guard.Error.protect ~stage:"pipeline.verify" (fun () ->
              Verify.run ~seed:options.seed level subject)
        with
        | Ok v -> v
        | Error e -> Verify.Inconclusive (Guard.Error.to_string e)
    in
    { report with verification = Some verdict }

(* Walk the ladder: first rung that compiles wins; each failure is
   captured (error + backtrace) into the report's [degraded] trail. *)
let compile_ladder ~options device strategy input ~original =
  let rec walk trail = function
    | [] ->
      let detail =
        String.concat "; "
          (List.rev_map
             (fun d ->
               Printf.sprintf "%s: %s" (strategy_name d.from_strategy)
                 (Guard.Error.to_string d.error))
             trail)
      in
      raise
        (Guard.Error.Guard_error
           (Guard.Error.v ~stage:"pipeline" ~site:"ladder"
              ("every ladder rung failed: " ^ detail)))
    | s :: rest ->
      if trail <> [] then Obs.Metrics.incr "guard.ladder.demotions";
      (match
         Guard.Error.protect_bt ~stage:("pipeline." ^ strategy_name s)
           (fun () ->
             compile_unverified ~jobs:options.jobs device s input ~original)
       with
       | Ok (report, pairs) ->
         ({ report with degraded = List.rev trail }, pairs)
       | Error (e, bt) ->
         walk ({ from_strategy = s; error = e; backtrace = bt } :: trail) rest)
  in
  walk [] (ladder strategy)

(* The deadline is the caller's scoped (domain-local) budget, so
   concurrent compiles — e.g. batched service requests fanned out over
   the pool — each keep their own. The pool re-installs the scope in its
   worker domains, so the candidate fan-out below is bounded too. *)
let compile ?(options = default) device strategy input =
  let original =
    if not options.fallback then logical_of_input input
    else
      (* No circuit, no passthrough: a failure this early still leaves
         the pipeline with one structured error instead of a raw exn. *)
      match
        Guard.Error.protect ~stage:"pipeline.input" (fun () ->
            logical_of_input input)
      with
      | Ok c -> c
      | Error e -> raise (Guard.Error.Guard_error e)
  in
  let report, pairs =
    if options.fallback then compile_ladder ~options device strategy input ~original
    else
      compile_unverified ~jobs:options.jobs device strategy input ~original
  in
  verify_report ~options ~original device input pairs report

(* Strategy fan-out: each strategy's compile (and its verification, when
   enabled) is an independent task. The inner compiles run with jobs=1 —
   the outer fan-out already owns the domains, and nested pools would
   oversubscribe without changing any result. *)
let compile_all ?(options = default) device strategies input =
  let inner = { options with jobs = 1 } in
  Exec.Pool.map ~jobs:(max 1 options.jobs)
    (fun strategy -> compile ~options:inner device strategy input)
    strategies

let beneficial device input =
  match input with
  | Commutable g ->
    let n = Galg.Graph.order g in
    let k = Commute.min_qubits g in
    if k < n then
      (true, Printf.sprintf "graph coloring: %d qubits suffice for %d vertices" k n)
    else (false, "interaction graph is complete: no reuse possible")
  | Regular c ->
    (match Reuse.valid_pairs (Reuse.analyze c) with
     | [] -> (false, "no valid reuse pair (conditions 1-2 fail everywhere)")
     | p :: _ ->
       let baseline = compile device Baseline input in
       let sr = compile device Sr input in
       let better =
         sr.stats.Transpiler.Transpile.swaps <= baseline.stats.Transpiler.Transpile.swaps
       in
       ( true,
         Printf.sprintf
           "reuse pair q%d->q%d exists; SR-CaQR swaps %d vs baseline %d%s"
           p.Reuse.src p.Reuse.dst sr.stats.Transpiler.Transpile.swaps
           baseline.stats.Transpiler.Transpile.swaps
           (if better then " (wins or ties)" else "") ))
