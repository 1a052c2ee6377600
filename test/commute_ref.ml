(* Reference commutable (QAOA) reuse planner: the list-based
   implementation that [Caqr.Commute] replaced, kept as a test oracle.
   Validity rebuilds the whole pair digraph and runs a three-colour DFS
   per candidate, candidates are re-derived from chain walks, every
   candidate's chain-load bound is recomputed, and the sweep emits both
   generators' plans at every budget before keeping the shallower. The
   production sweep must reproduce its steps exactly. The greedy
   matching the emit schedule uses is the list-based one it ran on and
   the exact schedule's matching is the frozen copy in [Matching_ref],
   so this oracle does not share the production matching kernel
   either. *)

open Caqr

(* Greedy maximal matching on the kept edges of a flat adjacency: kept
   edges [u < v] in lexicographic order, then a stable sort by
   decreasing weight; ties keep lexicographic order. *)
let greedy_into (a : Galg.Matching.adj) ~keep ~weight =
  let n = Array.length a.start in
  let es = ref [] in
  for u = n - 1 downto 0 do
    for k = a.start.(u) + a.len.(u) - 1 downto a.start.(u) do
      let v = a.nbr.(k) in
      if u < v && keep u v then es := (weight u v, u, v) :: !es
    done
  done;
  let es =
    List.stable_sort (fun (w1, _, _) (w2, _, _) -> Float.compare w2 w1) !es
  in
  let mate = Array.make n (-1) in
  List.iter
    (fun (_, u, v) ->
      if mate.(u) < 0 && mate.(v) < 0 then begin
        mate.(u) <- v;
        mate.(v) <- u
      end)
    es;
  mate

let min_qubits g = (Galg.Coloring.best g).Galg.Coloring.count

type plan = {
  g : Galg.Graph.t;
  pairs_rev : Reuse.pair list;
  next : int array;  (* chain successor, -1 at tail *)
  prev : int array;  (* chain predecessor, -1 at head *)
}

let make g =
  let n = Galg.Graph.order g in
  { g; pairs_rev = []; next = Array.make n (-1); prev = Array.make n (-1) }

let graph p = p.g
let pairs p = List.rev p.pairs_rev

let usage p =
  let c = ref 0 in
  Array.iter (fun pr -> if pr < 0 then incr c) p.prev;
  !c

let chain p head =
  let rec go q acc = if q < 0 then List.rev acc else go p.next.(q) (q :: acc) in
  go head []

let wires p =
  let acc = ref [] in
  for q = Galg.Graph.order p.g - 1 downto 0 do
    if p.prev.(q) < 0 then acc := q :: !acc
  done;
  !acc

let rec head_of p q = if p.prev.(q) < 0 then q else head_of p p.prev.(q)

(* Pair digraph acyclicity (paper Condition 2 for commuting circuits):
   pair p1 = (s1, d1) must precede p2 = (s2, d2) when d1 = s2 or d1
   interacts with s2 — then a gate carries the dependence across. A cycle
   means no gate order satisfies all reuses. *)
let pairs_acyclic g pair_list =
  let pairs = Array.of_list pair_list in
  let np = Array.length pairs in
  let links d s = d = s || Galg.Graph.has_edge g d s in
  let succ i =
    let d = pairs.(i).Reuse.dst in
    let acc = ref [] in
    for j = 0 to np - 1 do
      if j <> i && links d pairs.(j).Reuse.src then acc := j :: !acc
    done;
    !acc
  in
  (* Standard three-color DFS. *)
  let color = Array.make np 0 in
  let rec dfs i =
    if color.(i) = 1 then false
    else if color.(i) = 2 then true
    else begin
      color.(i) <- 1;
      let ok = List.for_all dfs (succ i) in
      color.(i) <- 2;
      ok
    end
  in
  let ok = ref true in
  for i = 0 to np - 1 do
    if !ok && color.(i) = 0 then ok := dfs i
  done;
  !ok

let independent p members_a members_b =
  not
    (List.exists
       (fun a -> List.exists (fun b -> Galg.Graph.has_edge p.g a b) members_b)
       members_a)

let valid_merge p ~src ~dst =
  src >= 0 && dst >= 0
  && src < Galg.Graph.order p.g
  && dst < Galg.Graph.order p.g
  && p.next.(src) < 0 (* src is a tail *)
  && p.prev.(dst) < 0 (* dst is a head *)
  && head_of p src <> dst
  &&
  let a = chain p (head_of p src) and b = chain p dst in
  independent p a b
  && pairs_acyclic p.g ({ Reuse.src; dst } :: p.pairs_rev)

let link p ~src ~dst =
  let next = Array.copy p.next and prev = Array.copy p.prev in
  next.(src) <- dst;
  prev.(dst) <- src;
  { p with pairs_rev = { Reuse.src; dst } :: p.pairs_rev; next; prev }

let merge p ~src ~dst =
  if not (valid_merge p ~src ~dst) then invalid_arg "Commute.merge: invalid pair";
  link p ~src ~dst

(* ---- The 3-step matching scheduler (paper §3.2.2) ---- *)

(* Wire hand-off: a vertex is done once its gates have run AND its chain
   predecessor is done, so the wire has passed through every earlier
   occupant. A gateless vertex therefore finishes right after its
   predecessor, never at time 0 while an earlier occupant still holds
   the wire, and a vertex's gates are blocked until its predecessor is
   done: a chain's vertices run strictly one after another.

   Runs the round-by-round schedule on flat adjacency, invoking [on_gate]
   on each gate of a round (ascending) and then [on_finish] on each vertex
   as it becomes done (cascading down its chain). Returns the number of
   rounds. *)
let run_schedule ~exact p ~on_gate ~on_finish =
  let n = Galg.Graph.order p.g in
  let remaining = Galg.Matching.adj_of_graph p.g in
  let work = Matching_ref.work remaining in
  let rem_deg = remaining.Galg.Matching.len in
  let edges_left = ref (Galg.Graph.size p.g) in
  let src_of = Array.make n (-1) in
  let has_dependent = Array.make n false in
  List.iter
    (fun { Reuse.src; dst } ->
      src_of.(dst) <- src;
      has_dependent.(src) <- true)
    p.pairs_rev;
  let done_ = Array.make n false in
  let rec finish q =
    if
      (not done_.(q))
      && rem_deg.(q) = 0
      && (src_of.(q) < 0 || done_.(src_of.(q)))
    then begin
      done_.(q) <- true;
      on_finish q;
      if p.next.(q) >= 0 then finish p.next.(q)
    end
  in
  for q = 0 to n - 1 do
    finish q
  done;
  (* Step 2: gates whose reuse dependence is unresolved are not eligible. *)
  let eligible u v =
    let s = src_of.(u) and t = src_of.(v) in
    (s < 0 || done_.(s)) && (t < 0 || done_.(t))
  in
  (* Step 3: maximum-weight matching; edges touching a pending reuse
     source carry priority weight, and among those the longest queues go
     first (LPT) — the heaviest wire bounds the makespan, so letting a hub
     idle for a round directly stretches the circuit. *)
  let priority u v = has_dependent.(u) || has_dependent.(v) in
  let weight u v =
    (if priority u v then 10000. else 0.)
    +. float_of_int (rem_deg.(u) + rem_deg.(v))
  in
  let remove u v =
    let { Galg.Matching.start; len; nbr } = remaining in
    let k = ref start.(u) in
    while nbr.(!k) <> v do
      incr k
    done;
    Array.blit nbr (!k + 1) nbr !k (start.(u) + len.(u) - 1 - !k);
    len.(u) <- len.(u) - 1
  in
  let rounds = ref 0 in
  while !edges_left > 0 do
    let mate =
      if exact then
        Matching_ref.priority_into work remaining ~keep:eligible ~priority
      else greedy_into remaining ~keep:eligible ~weight
    in
    let before = !edges_left in
    for u = 0 to n - 1 do
      if mate.(u) > u then begin
        on_gate u mate.(u);
        decr edges_left
      end
    done;
    if !edges_left = before then
      failwith "Commute.run_schedule: stuck (invalid reuse plan)";
    incr rounds;
    for u = 0 to n - 1 do
      let v = mate.(u) in
      if v > u then begin
        remove u v;
        remove v u;
        finish u;
        finish v
      end
    done
  done;
  !rounds

let schedule_rounds ?exact p =
  let exact =
    match exact with Some e -> e | None -> Galg.Graph.order p.g <= 32
  in
  Obs.Metrics.incr "commute.schedule.runs";
  run_schedule ~exact p ~on_gate:(fun _ _ -> ()) ~on_finish:(fun _ -> ())

(* The chain-load lemma: a chain's vertices run one after another (the
   hand-off rule) and a vertex joins at most one gate per round, so every
   schedule of [p] needs at least max over chains of the chain's summed
   degrees in rounds. *)
let rounds_lower_bound p =
  List.fold_left
    (fun acc head ->
      max acc
        (List.fold_left
           (fun load v -> load + Galg.Graph.degree p.g v)
           0 (chain p head)))
    0 (wires p)

let emit ?(gamma = 0.7) ?(beta = 0.3) p =
  let n = Galg.Graph.order p.g in
  let b = Quantum.Circuit.Builder.create ~num_qubits:n ~num_clbits:n in
  let started = Array.make n false in
  let start q =
    if not started.(q) then begin
      started.(q) <- true;
      Quantum.Circuit.Builder.h b q
    end
  in
  let finish q =
    start q;
    Quantum.Circuit.Builder.rx b (2. *. beta) q;
    Quantum.Circuit.Builder.measure b q q;
    (* Hand the wire to the next chain occupant with a conditional reset
       driven by the measurement just taken (Fig. 2 (b)). *)
    if p.next.(q) >= 0 then Quantum.Circuit.Builder.if_x b q q
  in
  let on_gate u v =
    start u;
    start v;
    Quantum.Circuit.Builder.rzz b gamma u v
  in
  let _rounds = run_schedule ~exact:false p ~on_gate ~on_finish:finish in
  let circuit = Quantum.Circuit.Builder.build b in
  (* Collapse each chain onto its head wire. *)
  let wire = Array.init n (fun q -> head_of p q) in
  Quantum.Circuit.map_qubits ~num_qubits:n (fun q -> wire.(q)) circuit

(* ---- Greedy reduction ---- *)

let candidates p =
  let heads = wires p in
  let tail_of h = List.nth (chain p h) (List.length (chain p h) - 1) in
  List.concat_map
    (fun ha ->
      let s = tail_of ha in
      List.filter_map
        (fun hb -> if hb <> ha then Some (s, hb) else None)
        heads)
    heads

(* Gate load a wire must run serially: the degrees of every hosted vertex
   plus the per-handoff reset overhead. The schedule can never beat the
   max wire load, so merges are ranked by the load of the merged wire —
   this builds many balanced chains instead of one ever-growing chain. *)
let chain_load p head =
  List.fold_left
    (fun acc v -> acc + Galg.Graph.degree p.g v + 2)
    0 (chain p head)

let merge_cost p (s, d_head) = chain_load p (head_of p s) + chain_load p d_head

let reduce_once ?(mode = `Auto) p =
  let mode =
    match mode with
    | `Auto -> if Galg.Graph.order p.g <= 30 then `Exact else `Heuristic
    | m -> m
  in
  let cands =
    List.map (fun c -> (merge_cost p c, c)) (candidates p)
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  match mode with
  | `Heuristic | `Auto ->
    (* First valid candidate in ascending combined-degree order: low-degree
       qubits are the ones reusable without hurting depth (§4.2.2). *)
    let rec first = function
      | [] -> None
      | (src, dst) :: rest ->
        if valid_merge p ~src ~dst then Some (link p ~src ~dst) else first rest
    in
    first cands
  | `Exact ->
    (* Evaluate up to 48 valid candidates by scheduler rounds; the first
       best wins ties. A candidate whose chain-load bound already reaches
       the incumbent's rounds cannot displace it, so its schedule is
       skipped — it still spends its slot, which keeps the choice exactly
       that of scheduling every candidate. *)
    let rec eval best budget = function
      | [] -> best
      | _ when budget = 0 -> best
      | (src, dst) :: rest ->
        if valid_merge p ~src ~dst then begin
          let p' = link p ~src ~dst in
          match best with
          | Some (_, r') when rounds_lower_bound p' >= r' ->
            Obs.Metrics.incr "commute.schedule.pruned";
            eval best (budget - 1) rest
          | _ ->
            let r = schedule_rounds p' in
            (match best with
             | Some (_, r') when r' <= r -> eval best (budget - 1) rest
             | _ -> eval (Some (p', r)) (budget - 1) rest)
        end
        else eval best budget rest
    in
    eval None 48 cands |> Option.map fst

(* ---- Capacity-constrained planning ----

   Incremental tail/head merging freezes chain orders too early: on dense
   hub cores every later merge closes a dependence cycle long before the
   coloring bound. Planning for a hard wire budget instead runs a
   list scheduler with [budget] wires as a resource: a qubit is bound to
   a wire when its first gate is scheduled and the wire is recycled when
   it finishes, so the resulting chains are feasible by construction
   (their order IS a valid schedule). This matches the paper's §2.2 tool:
   "generate transformed circuit ... for any qubit reuse count". *)

let plan_of_wires g wires =
  let n = Galg.Graph.order g in
  let next = Array.make n (-1) and prev = Array.make n (-1) in
  let pairs_rev = ref [] in
  List.iter
    (fun hosts ->
      let rec link = function
        | s :: (d :: _ as rest) ->
          next.(s) <- d;
          prev.(d) <- s;
          pairs_rev := { Reuse.src = s; dst = d } :: !pairs_rev;
          link rest
        | _ -> ()
      in
      link hosts)
    wires;
  { g; pairs_rev = !pairs_rev; next; prev }

(* Wire demand is a vertex-separation problem: once an activation order
   sigma is fixed, qubit [q] must hold a wire from its activation until
   its last neighbor activates (their shared gate needs both alive), so
   the wires needed by sigma are exactly its separation width and the
   optimum over orders is pathwidth + 1. Greedy width-minimizing ordering
   with a budget cap replaces round-based scheduling: feasibility is a
   simple width check, so there is nothing to deadlock. *)
let order_for_budget g ~budget =
  let n = Galg.Graph.order g in
  let opened = Array.make n false in
  (* Unopened-neighbor count: a vertex closes when this hits 0. *)
  let pending = Array.init n (Galg.Graph.degree g) in
  let open_now = Array.make n false in
  let width = ref 0 and max_width = ref 0 in
  let sigma = ref [] in
  let closes_after v =
    (* How many currently-open vertices (v included) close once v opens? *)
    let closed = ref 0 in
    if pending.(v) = 0 then incr closed;
    List.iter
      (fun w -> if open_now.(w) && pending.(w) = 1 then incr closed)
      (Galg.Graph.neighbors g v);
    !closed
  in
  let edges_to_open v =
    List.length (List.filter (fun w -> open_now.(w)) (Galg.Graph.neighbors g v))
  in
  let do_open v =
    opened.(v) <- true;
    open_now.(v) <- true;
    incr width;
    sigma := v :: !sigma;
    (* Peak overlap is measured before the closures triggered by this
       opening: a vertex closing right now still holds its wire at this
       instant, and so does a vertex whose whole life is this instant. *)
    if !width > !max_width then max_width := !width;
    List.iter
      (fun w ->
        pending.(w) <- pending.(w) - 1;
        if open_now.(w) && pending.(w) = 0 then begin
          open_now.(w) <- false;
          decr width
        end)
      (Galg.Graph.neighbors g v);
    if pending.(v) = 0 then begin
      open_now.(v) <- false;
      decr width
    end
  in
  for _ = 1 to n do
    (* Next vertex: stay within budget if possible; keep the open set as
       large as the budget allows (a big open set is what gives the
       matching scheduler parallel work, hence depth); tie-break toward
       vertices with more runnable gates. When nothing fits the budget,
       take the width-minimizing choice and let the final check fail. *)
    let best = ref (-1) in
    let best_key = ref (max_int, max_int, max_int) in
    for v = 0 to n - 1 do
      if not opened.(v) then begin
        let closes = closes_after v in
        let new_width = !width + 1 - closes in
        (* A handoff instant needs both wires live, so the peak must stay
           within budget AND the settled width must leave one wire of
           headroom for the next opening. *)
        let over =
          if !width + 1 > budget || new_width > budget - 1 then 1 else 0
        in
        let key =
          if over = 1 then (1, new_width, -edges_to_open v)
          else (0, closes, -edges_to_open v)
        in
        if key < !best_key then begin
          best_key := key;
          best := v
        end
      end
    done;
    do_open !best
  done;
  (List.rev !sigma, !max_width)

let plan_with_budget g ~budget =
  if budget < 1 then None
  else begin
    let n = Galg.Graph.order g in
    let sigma, width = order_for_budget g ~budget in
    if width > budget || n = 0 then None
    else begin
      (* Replay sigma, binding wires first-fit on open and recycling on
         close; chain = host sequence per wire. *)
      let rank = Array.make n 0 in
      List.iteri (fun i v -> rank.(v) <- i) sigma;
      let close_rank =
        Array.init n (fun v ->
            List.fold_left
              (fun acc w -> max acc rank.(w))
              rank.(v) (Galg.Graph.neighbors g v))
      in
      let hosts = Array.make (max 1 budget) [] in
      let wire_free_at = Array.make (max 1 budget) (-1) in
      let wire_load = Array.make (max 1 budget) 0 in
      List.iter
        (fun v ->
          (* Among wires free before v opens, pick the least loaded: a
             wire's hosted gates run serially, so balance decides depth. *)
          let best = ref (-1) in
          for w = 0 to budget - 1 do
            if
              wire_free_at.(w) < rank.(v)
              && (!best < 0 || wire_load.(w) < wire_load.(!best))
            then best := w
          done;
          if !best < 0 then invalid_arg "plan_with_budget: width check lied";
          let w = !best in
          hosts.(w) <- v :: hosts.(w);
          wire_load.(w) <- wire_load.(w) + Galg.Graph.degree g v + 4;
          wire_free_at.(w) <- close_rank.(v))
        sigma;
      let wires =
        List.filter (fun l -> l <> []) (Array.to_list (Array.map List.rev hosts))
      in
      Some (plan_of_wires g wires)
    end
  end

let make_step ?gamma ?beta plan =
  Engine.make_step (emit ?gamma ?beta plan) (pairs plan)

(* One plan per qubit limit, exactly the paper's per-limit query. Two
   generators compete at every limit and the shallower emitted circuit
   wins: the incremental pair-merge path (the paper's §3.2.2 greedy,
   strong for gentle savings because it picks the least-harmful pair)
   and the budget-constrained separation planner (strong for deep
   savings, where incremental merging dead-ends on frozen chain
   orders). Duplicate usages are dropped. *)
let sweep ?(mode = `Auto) ?gamma ?beta g =
  Obs.Metrics.time "time.commute" @@ fun () ->
  let base = make_step ?gamma ?beta (make g) in
  (* Merge trajectory, indexed by usage. *)
  let merge_path =
    let rec go plan acc =
      match reduce_once ~mode plan with
      | Some plan' -> go plan' ((usage plan', plan') :: acc)
      | None -> acc
    in
    go (make g) []
  in
  let merge_at k =
    (* Deepest merge-path plan with usage <= k (list is deepest-first). *)
    List.find_opt (fun (u, _) -> u <= k) merge_path |> Option.map snd
  in
  let rec go budget last_usage acc =
    if budget < 1 then List.rev acc
    else begin
      let candidates =
        List.filter_map Fun.id [ plan_with_budget g ~budget; merge_at budget ]
      in
      let steps = List.map (make_step ?gamma ?beta) candidates in
      let best =
        List.fold_left
          (fun best (s : Engine.step) ->
            match best with
            | Some (b : Engine.step)
              when (b.depth, b.usage) <= (s.depth, s.usage) ->
              best
            | _ -> Some s)
          None steps
      in
      match best with
      | None -> List.rev acc
      | Some (step : Engine.step) ->
        if step.usage < last_usage then
          go (min (budget - 1) (step.usage - 1)) step.usage (step :: acc)
        else go (budget - 1) last_usage acc
    end
  in
  go (base.usage - 1) base.usage [ base ]

(* The plan whose chains are the given pairs' links, for checking a
   production plan's validity answers against this oracle. *)
let of_pairs g pairs =
  let n = Galg.Graph.order g in
  let next = Array.make n (-1) and prev = Array.make n (-1) in
  List.iter
    (fun { Reuse.src; dst } ->
      next.(src) <- dst;
      prev.(dst) <- src)
    pairs;
  { g; pairs_rev = List.rev pairs; next; prev }
