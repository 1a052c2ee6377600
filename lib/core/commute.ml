let min_qubits g = (Galg.Coloring.best g).Galg.Coloring.count

(* ---- Flat graph tables ----

   Built once per graph and shared, read-only, by every plan derived from
   it: degrees, the flat adjacency the scheduler matches on (neighbours
   ascending) and one adjacency bitset row per vertex. *)

let word = Sys.int_size

type tables = {
  g : Galg.Graph.t;
  n : int;
  deg : int array;
  adj : Galg.Matching.adj;  (* never mutated; schedules work on a copy *)
  words : int;  (* ints per bitset row *)
  bits : int array;  (* row v: the neighbours of v *)
}

let set_bit rows words row v =
  let i = (row * words) + (v / word) in
  rows.(i) <- rows.(i) lor (1 lsl (v mod word))

let has_bit rows words row v =
  rows.((row * words) + (v / word)) land (1 lsl (v mod word)) <> 0

let tables g =
  let n = Galg.Graph.order g in
  let adj = Galg.Matching.adj_of_graph g in
  let words = (n + word - 1) / word in
  let bits = Array.make (n * words) 0 in
  for v = 0 to n - 1 do
    for k = adj.start.(v) to adj.start.(v) + adj.len.(v) - 1 do
      set_bit bits words v adj.nbr.(k)
    done
  done;
  { g; n; deg = adj.len; adj; words; bits }

(* A plan is its chain links plus per-chain summaries, indexed by the
   chain's head (entries of non-heads are stale): tail, summed degree,
   length, and the member and neighbourhood bitset rows. Plans are
   immutable; [link] copies. *)
type plan = {
  t : tables;
  pairs_rev : Reuse.pair list;
  usage : int;  (* number of chains *)
  next : int array;  (* chain successor, -1 at tail *)
  prev : int array;  (* chain predecessor, -1 at head *)
  head : int array;  (* chain head of every vertex *)
  tail : int array;
  load : int array;  (* summed degree *)
  size : int array;
  members : int array;
  nbhd : int array;
  lb : int;  (* largest chain load: the chain-load bound *)
}

(* The plan whose chains are the given links. *)
let of_links t ~pairs_rev ~next ~prev =
  let n = t.n and words = t.words in
  let head = Array.make n 0 and tail = Array.make n 0 in
  let load = Array.make n 0 and size = Array.make n 0 in
  let members = Array.make (n * words) 0 and nbhd = Array.make (n * words) 0 in
  let usage = ref 0 and lb = ref 0 in
  for h = 0 to n - 1 do
    if prev.(h) < 0 then begin
      incr usage;
      let q = ref h in
      while !q >= 0 do
        let v = !q in
        head.(v) <- h;
        tail.(h) <- v;
        load.(h) <- load.(h) + t.deg.(v);
        size.(h) <- size.(h) + 1;
        set_bit members words h v;
        for i = 0 to words - 1 do
          nbhd.((h * words) + i) <-
            nbhd.((h * words) + i) lor t.bits.((v * words) + i)
        done;
        q := next.(v)
      done;
      if load.(h) > !lb then lb := load.(h)
    end
  done;
  {
    t;
    pairs_rev;
    usage = !usage;
    next;
    prev;
    head;
    tail;
    load;
    size;
    members;
    nbhd;
    lb = !lb;
  }

let make_t t =
  of_links t ~pairs_rev:[] ~next:(Array.make t.n (-1))
    ~prev:(Array.make t.n (-1))

let make g = make_t (tables g)
let graph p = p.t.g
let pairs p = List.rev p.pairs_rev
let usage p = p.usage

let chain p head =
  let rec go q acc = if q < 0 then List.rev acc else go p.next.(q) (q :: acc) in
  go head []

let wires p =
  let acc = ref [] in
  for q = p.t.n - 1 downto 0 do
    if p.prev.(q) < 0 then acc := q :: !acc
  done;
  !acc

(* Chain [hb] appended to chain [ha] (its tail [src], its head [dst]):
   the summaries of the union are those of the parts combined. *)
let link p ~src ~dst =
  let ha = p.head.(src) and hb = dst and words = p.t.words in
  let next = Array.copy p.next and prev = Array.copy p.prev in
  next.(src) <- dst;
  prev.(dst) <- src;
  let head = Array.copy p.head in
  let q = ref dst in
  while !q >= 0 do
    head.(!q) <- ha;
    q := next.(!q)
  done;
  let tail = Array.copy p.tail and load = Array.copy p.load in
  let size = Array.copy p.size in
  tail.(ha) <- p.tail.(hb);
  load.(ha) <- p.load.(ha) + p.load.(hb);
  size.(ha) <- p.size.(ha) + p.size.(hb);
  let members = Array.copy p.members and nbhd = Array.copy p.nbhd in
  for i = 0 to words - 1 do
    let a = (ha * words) + i and b = (hb * words) + i in
    members.(a) <- members.(a) lor members.(b);
    nbhd.(a) <- nbhd.(a) lor nbhd.(b)
  done;
  {
    p with
    pairs_rev = { Reuse.src; dst } :: p.pairs_rev;
    usage = p.usage - 1;
    next;
    prev;
    head;
    tail;
    load;
    size;
    members;
    nbhd;
    lb = max p.lb load.(ha);
  }

(* ---- Per-sweep workspace ----

   Scratch for the cycle query and the scheduler, sized by the tables
   and refilled in place: the remaining-edge adjacency (a copy of the
   tables' adjacency, restored by blit), the matching work arrays, the
   scheduled plan's links and the emission dry run's wire fronts. *)

(* Cycle-query scratch: visit stamps and the search stack. *)
type query = {
  seen : int array;
  mutable stamp : int;
  stack : int array;
  mutable top : int;
}

let query n = { seen = Array.make n 0; stamp = 0; stack = Array.make n 0; top = 0 }

type workspace = {
  wt : tables;
  cq : query;
  rem : Galg.Matching.adj;
  work : Galg.Matching.work;
  snext : int array;
  sprev : int array;
  cid : int array;  (* head of each vertex's chain *)
  cload : int array;  (* gates left per chain *)
  done_ : bool array;
  elig : bool array;  (* the vertex's reuse dependence is met *)
  prio : bool array;  (* the vertex is a reuse source *)
  gate_u : int array;  (* the lower ends of a round's gates *)
  started : bool array;
  front : int array;
  events : int array;  (* the dry run's event record *)
}

let workspace t =
  let n = t.n in
  let rem =
    {
      Galg.Matching.start = t.adj.start;
      len = Array.copy t.adj.len;
      nbr = Array.copy t.adj.nbr;
    }
  in
  {
    wt = t;
    cq = query n;
    rem;
    work = Galg.Matching.work rem;
    snext = Array.make n (-1);
    sprev = Array.make n (-1);
    cid = Array.make n 0;
    cload = Array.make n 0;
    done_ = Array.make n false;
    elig = Array.make n false;
    prio = Array.make n false;
    gate_u = Array.make n 0;
    started = Array.make n false;
    front = Array.make n 0;
    events = Array.make (n + Galg.Graph.size t.g) 0;
  }

(* ---- Validity (paper Condition 2 for commuting circuits) ----

   Pair p1 = (s1, d1) must precede p2 = (s2, d2) when d1 = s2 or d1
   interacts with s2 — then a gate carries the dependence across. A cycle
   means no gate order satisfies all reuses. A plan's pairs are its chain
   links, so a pair is named by its source [q] ([next.(q) >= 0]). *)

let independent p ha hb =
  let words = p.t.words in
  let ok = ref true in
  for i = 0 to words - 1 do
    if p.nbhd.((ha * words) + i) land p.members.((hb * words) + i) <> 0 then
      ok := false
  done;
  !ok

(* Stack the unvisited pairs a pair ending at [x] precedes: those whose
   source is [x] or a neighbour of [x]. *)
let visit cq p y =
  if p.next.(y) >= 0 && cq.seen.(y) <> cq.stamp then begin
    cq.seen.(y) <- cq.stamp;
    cq.stack.(cq.top) <- y;
    cq.top <- cq.top + 1
  end

let push_successors cq p x =
  visit cq p x;
  let adj = p.t.adj in
  for k = adj.start.(x) to adj.start.(x) + adj.len.(x) - 1 do
    visit cq p adj.nbr.(k)
  done

(* The pairs of [p] are acyclic, so adding (src, dst) closes a cycle iff
   the cycle runs through the new pair: some pair reachable from its
   successors precedes it, i.e. ends at [src] or at a neighbour of
   [src]. One search over the existing pairs answers that. *)
let closes_cycle cq p ~src ~dst =
  cq.stamp <- cq.stamp + 1;
  cq.top <- 0;
  push_successors cq p dst;
  let t = p.t in
  let found = ref false in
  while (not !found) && cq.top > 0 do
    cq.top <- cq.top - 1;
    let x = p.next.(cq.stack.(cq.top)) in
    if x = src || has_bit t.bits t.words src x then found := true
    else push_successors cq p x
  done;
  !found

(* [src] is the tail of chain [ha], [dst] the head of another chain. *)
let valid cq p ~ha ~src ~dst =
  independent p ha dst && not (closes_cycle cq p ~src ~dst)

let valid_merge p ~src ~dst =
  src >= 0 && dst >= 0
  && src < p.t.n
  && dst < p.t.n
  && p.next.(src) < 0 (* src is a tail *)
  && p.prev.(dst) < 0 (* dst is a head *)
  && p.head.(src) <> dst
  && valid (query p.t.n) p ~ha:p.head.(src) ~src ~dst

let merge p ~src ~dst =
  if not (valid_merge p ~src ~dst) then invalid_arg "Commute.merge: invalid pair";
  link p ~src ~dst

(* ---- The 3-step matching scheduler (paper §3.2.2) ---- *)

(* Wire hand-off: a vertex is done once its gates have run AND its chain
   predecessor is done, so the wire has passed through every earlier
   occupant. A gateless vertex therefore finishes right after its
   predecessor, never at time 0 while an earlier occupant still holds
   the wire, and a vertex's gates are blocked until its predecessor is
   done: a chain's vertices run strictly one after another. Finishing a
   vertex makes its successor's gates eligible ([elig]) and may finish
   the successor in turn. *)
let rec finish ws on_finish q =
  let src = ws.sprev.(q) in
  if
    (not ws.done_.(q))
    && ws.rem.len.(q) = 0
    && (src < 0 || ws.done_.(src))
  then begin
    ws.done_.(q) <- true;
    on_finish q;
    let succ = ws.snext.(q) in
    if succ >= 0 then begin
      ws.elig.(succ) <- true;
      finish ws on_finish succ
    end
  end

(* Deletes [v] from [u]'s list, shifting the larger neighbours down. *)
let remove (a : Galg.Matching.adj) u v =
  let nbr = a.nbr in
  let k = ref a.start.(u) and last = a.start.(u) + a.len.(u) - 1 in
  while nbr.(!k) <> v do
    incr k
  done;
  for i = !k to last - 1 do
    nbr.(i) <- nbr.(i + 1)
  done;
  a.len.(u) <- a.len.(u) - 1

(* Runs the round-by-round schedule of the links in [ws.snext]/[ws.sprev]
   on the remaining-edge adjacency, invoking [on_gate] on each gate of a
   round (ascending) and then [on_finish] on each vertex as it becomes
   done (cascading down its chain). Returns the number of rounds.

   Step 2: gates whose reuse dependence is unresolved are not eligible
   ([elig]). Step 3: maximum-weight matching; edges touching a pending
   reuse source ([prio]) carry priority weight, and among those the
   longest queues go first (LPT) — the heaviest wire bounds the
   makespan, so letting a hub idle for a round directly stretches the
   circuit.

   With a finite [limit] the run stops, returning [limit], once the
   rounds run plus the gates left on the busiest chain reach it: a
   chain's occupants run one after another, so a chain runs at most one
   gate per round and the schedule cannot end sooner. *)
let run_schedule ws ~exact ~limit ~on_gate ~on_finish =
  let t = ws.wt in
  let n = t.n in
  let remaining = ws.rem in
  Array.blit t.adj.len 0 remaining.len 0 n;
  Array.blit t.adj.nbr 0 remaining.nbr 0 (Array.length t.adj.nbr);
  let next = ws.snext and src_of = ws.sprev in
  let elig = ws.elig and prio = ws.prio and cid = ws.cid and cload = ws.cload in
  Array.fill ws.done_ 0 n false;
  Array.fill cload 0 n 0;
  for h = 0 to n - 1 do
    elig.(h) <- src_of.(h) < 0;
    prio.(h) <- next.(h) >= 0;
    if src_of.(h) < 0 then begin
      let q = ref h in
      while !q >= 0 do
        cid.(!q) <- h;
        cload.(h) <- cload.(h) + t.deg.(!q);
        q := next.(!q)
      done
    end
  done;
  for q = 0 to n - 1 do
    finish ws on_finish q
  done;
  let edges_left = ref (Galg.Graph.size t.g) in
  let rounds = ref 0 and cut = ref false in
  while !edges_left > 0 && not !cut do
    let mate =
      if exact then Galg.Matching.priority_into ws.work remaining ~elig ~prio
      else Galg.Matching.greedy_into ws.work remaining ~elig ~prio
    in
    (* The round's gates, ascending. *)
    let gates = ref 0 in
    for u = 0 to n - 1 do
      if mate.(u) > u then begin
        on_gate u mate.(u);
        ws.gate_u.(!gates) <- u;
        incr gates
      end
    done;
    if !gates = 0 then failwith "Commute.run_schedule: stuck (invalid reuse plan)";
    edges_left := !edges_left - !gates;
    incr rounds;
    for i = 0 to !gates - 1 do
      let u = ws.gate_u.(i) in
      let v = mate.(u) in
      remove remaining u v;
      remove remaining v u;
      cload.(cid.(u)) <- cload.(cid.(u)) - 1;
      cload.(cid.(v)) <- cload.(cid.(v)) - 1;
      finish ws on_finish u;
      finish ws on_finish v
    done;
    if limit < max_int then begin
      let busiest = ref 0 in
      for h = 0 to n - 1 do
        if cload.(h) > !busiest then busiest := cload.(h)
      done;
      if !rounds + !busiest >= limit then cut := true
    end
  done;
  if !cut then limit else !rounds

let load_links ws p =
  Array.blit p.next 0 ws.snext 0 p.t.n;
  Array.blit p.prev 0 ws.sprev 0 p.t.n

let no_gate _ _ = ()
let no_finish _ = ()
let exact_default t = t.n <= 32

let schedule_rounds ?exact p =
  let exact = match exact with Some e -> e | None -> exact_default p.t in
  Obs.Metrics.incr "commute.schedule.runs";
  let ws = workspace p.t in
  load_links ws p;
  run_schedule ws ~exact ~limit:max_int ~on_gate:no_gate ~on_finish:no_finish

let rounds_lower_bound p = p.lb

(* ---- Emission ----

   A plan's emit schedule runs once, as a dry run that records its
   events in order — [q < n]: vertex [q] finishes; [n + u * n + v]: the
   gate (u, v) — and advances each wire's ASAP front by the gates [emit]
   places on it: H on a vertex's first use, Rzz on both wires, then Rx,
   measure and (mid-chain) the conditional X. A measurement's clbit is
   its vertex's own, so it never delays a wire. The circuit is built by
   replaying the events. *)

type shape = { depth : int; used : int; events : int array }

let shape_with ws p =
  let n = p.t.n in
  let started = ws.started and front = ws.front and head = p.head in
  Array.fill started 0 n false;
  Array.fill front 0 n 0;
  let events = ws.events and count = ref 0 in
  let start q =
    if not started.(q) then begin
      started.(q) <- true;
      front.(head.(q)) <- front.(head.(q)) + 1
    end
  in
  let on_gate u v =
    events.(!count) <- n + (u * n) + v;
    incr count;
    start u;
    start v;
    let f = 1 + max front.(head.(u)) front.(head.(v)) in
    front.(head.(u)) <- f;
    front.(head.(v)) <- f
  in
  let on_finish q =
    events.(!count) <- q;
    incr count;
    start q;
    front.(head.(q)) <- front.(head.(q)) + if p.next.(q) >= 0 then 3 else 2
  in
  load_links ws p;
  let _rounds = run_schedule ws ~exact:false ~limit:max_int ~on_gate ~on_finish in
  let depth = ref 0 and used = ref 0 in
  for w = 0 to n - 1 do
    if front.(w) > !depth then depth := front.(w);
    if front.(w) > 0 then incr used
  done;
  { depth = !depth; used = !used; events = Array.sub events 0 !count }

let emit_events ?(gamma = 0.7) ?(beta = 0.3) p events =
  let n = p.t.n and head = p.head in
  (* H, Rx and a measurement per vertex, a conditional X per link and an
     Rzz per edge; every vertex's gates go on its chain's head wire. *)
  let kinds =
    Array.make ((4 * n) - p.usage + Galg.Graph.size p.t.g) (Quantum.Gate.Reset 0)
  in
  let len = ref 0 in
  let add kind =
    kinds.(!len) <- kind;
    incr len
  in
  let started = Array.make n false in
  let start q =
    if not started.(q) then begin
      started.(q) <- true;
      add (Quantum.Gate.One_q (Quantum.Gate.H, head.(q)))
    end
  in
  let finish q =
    start q;
    add (Quantum.Gate.One_q (Quantum.Gate.Rx (2. *. beta), head.(q)));
    add (Quantum.Gate.Measure (head.(q), q));
    (* Hand the wire to the next chain occupant with a conditional reset
       driven by the measurement just taken (Fig. 2 (b)). *)
    if p.next.(q) >= 0 then add (Quantum.Gate.If_x (q, head.(q)))
  in
  let gate u v =
    start u;
    start v;
    add (Quantum.Gate.Rzz (gamma, head.(u), head.(v)))
  in
  Array.iter
    (fun e -> if e < n then finish e else gate ((e - n) / n) ((e - n) mod n))
    events;
  assert (!len = Array.length kinds);
  Quantum.Circuit.of_kind_array ~num_qubits:n ~num_clbits:n kinds

let emit ?gamma ?beta p =
  emit_events ?gamma ?beta p (shape_with (workspace p.t) p).events

let emit_shape p =
  let s = shape_with (workspace p.t) p in
  (s.depth, s.used)

(* ---- Greedy reduction ---- *)

let resolve_mode t = function
  | `Auto -> if t.n <= 30 then `Exact else `Heuristic
  | (`Exact | `Heuristic) as m -> m

(* Gate load a wire must run serially: the degrees of every hosted vertex
   plus the per-handoff reset overhead. The schedule can never beat the
   max wire load, so merges are ranked by the load of the merged wire —
   this builds many balanced chains instead of one ever-growing chain. *)
let chain_load p head = p.load.(head) + (2 * p.size.(head))

(* Rounds of [p] plus the pair (src, dst), cut at [limit]. *)
let candidate_rounds ws ~exact p ~src ~dst ~limit =
  load_links ws p;
  ws.snext.(src) <- dst;
  ws.sprev.(dst) <- src;
  run_schedule ws ~exact ~limit ~on_gate:no_gate ~on_finish:no_finish

let reduce ws ~mode p =
  let k = p.usage in
  (* Candidates (tail of chain i, head of chain j), i <> j, over heads in
     ascending order, stably sorted by merge cost: a counting sort of the
     enumeration indices i * k + j. A cost is at most the total load,
     2 * edges + 2 * vertices. *)
  let heads = Array.make k 0 in
  let c = ref 0 in
  for q = 0 to p.t.n - 1 do
    if p.prev.(q) < 0 then begin
      heads.(!c) <- q;
      incr c
    end
  done;
  let cost i j = chain_load p heads.(i) + chain_load p heads.(j) in
  let count = Array.make ((2 * Galg.Graph.size p.t.g) + (2 * p.t.n) + 2) 0 in
  let order = Array.make ((k * k) - k) 0 in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if i <> j then count.(cost i j + 1) <- count.(cost i j + 1) + 1
    done
  done;
  for c = 1 to Array.length count - 1 do
    count.(c) <- count.(c) + count.(c - 1)
  done;
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if i <> j then begin
        order.(count.(cost i j)) <- (i * k) + j;
        count.(cost i j) <- count.(cost i j) + 1
      end
    done
  done;
  let nkeys = Array.length order in
  match resolve_mode p.t mode with
  | `Heuristic ->
    (* First valid candidate in ascending combined-degree order: low-degree
       qubits are the ones reusable without hurting depth (§4.2.2). *)
    let rec first i =
      if i >= nkeys then None
      else begin
        let ha = heads.(order.(i) / k) and dst = heads.(order.(i) mod k) in
        let src = p.tail.(ha) in
        if valid ws.cq p ~ha ~src ~dst then Some (link p ~src ~dst)
        else first (i + 1)
      end
    in
    first 0
  | `Exact ->
    (* Evaluate up to 48 valid candidates by scheduler rounds; the first
       best wins ties. A candidate whose chain-load bound already reaches
       the incumbent's rounds cannot displace it, so its schedule is
       skipped; a schedule that runs is cut once the same bound on its
       remaining gates shows it cannot finish below the incumbent. Either
       candidate still spends its slot, which keeps the choice exactly
       that of scheduling every candidate in full. *)
    let exact = exact_default p.t in
    let best_src = ref (-1) and best_dst = ref (-1) and best_r = ref max_int in
    let budget = ref 48 and i = ref 0 and runs = ref 0 and pruned = ref 0 in
    while !budget > 0 && !i < nkeys do
      let ha = heads.(order.(!i) / k) and dst = heads.(order.(!i) mod k) in
      let src = p.tail.(ha) in
      if valid ws.cq p ~ha ~src ~dst then begin
        decr budget;
        if !best_src >= 0 && max p.lb (p.load.(ha) + p.load.(dst)) >= !best_r
        then incr pruned
        else begin
          incr runs;
          let r = candidate_rounds ws ~exact p ~src ~dst ~limit:!best_r in
          if r < !best_r then begin
            best_src := src;
            best_dst := dst;
            best_r := r
          end
        end
      end;
      incr i
    done;
    if !runs > 0 then Obs.Metrics.incr ~by:!runs "commute.schedule.runs";
    if !pruned > 0 then Obs.Metrics.incr ~by:!pruned "commute.schedule.pruned";
    if !best_src < 0 then None
    else Some (link p ~src:!best_src ~dst:!best_dst)

let reduce_once ?(mode = `Auto) p = reduce (workspace p.t) ~mode p

(* ---- Capacity-constrained planning ----

   Incremental tail/head merging freezes chain orders too early: on dense
   hub cores every later merge closes a dependence cycle long before the
   coloring bound. Planning for a hard wire budget instead runs a
   list scheduler with [budget] wires as a resource: a qubit is bound to
   a wire when its first gate is scheduled and the wire is recycled when
   it finishes, so the resulting chains are feasible by construction
   (their order IS a valid schedule). This matches the paper's §2.2 tool:
   "generate transformed circuit ... for any qubit reuse count". *)

let plan_of_wires t wires =
  let next = Array.make t.n (-1) and prev = Array.make t.n (-1) in
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
  of_links t ~pairs_rev:!pairs_rev ~next ~prev

(* Wire demand is a vertex-separation problem: once an activation order
   sigma is fixed, qubit [q] must hold a wire from its activation until
   its last neighbor activates (their shared gate needs both alive), so
   the wires needed by sigma are exactly its separation width and the
   optimum over orders is pathwidth + 1. Greedy width-minimizing ordering
   with a budget cap replaces round-based scheduling: feasibility is a
   simple width check, so there is nothing to deadlock. *)
let order_for_budget t ~budget =
  let n = t.n and adj = t.adj in
  let opened = Array.make n false in
  (* Unopened-neighbor count: a vertex closes when this hits 0. *)
  let pending = Array.copy t.deg in
  let open_now = Array.make n false in
  (* Open-neighbor count: the gates a vertex could run on opening. *)
  let open_nbrs = Array.make n 0 in
  let width = ref 0 and max_width = ref 0 in
  let sigma = Array.make n 0 in
  let bump_nbrs v d =
    for k = adj.start.(v) to adj.start.(v) + adj.len.(v) - 1 do
      open_nbrs.(adj.nbr.(k)) <- open_nbrs.(adj.nbr.(k)) + d
    done
  in
  let close w =
    open_now.(w) <- false;
    decr width;
    bump_nbrs w (-1)
  in
  let closes_after v =
    (* How many currently-open vertices (v included) close once v opens? *)
    let closed = ref (if pending.(v) = 0 then 1 else 0) in
    for k = adj.start.(v) to adj.start.(v) + adj.len.(v) - 1 do
      let w = adj.nbr.(k) in
      if open_now.(w) && pending.(w) = 1 then incr closed
    done;
    !closed
  in
  let do_open i v =
    opened.(v) <- true;
    open_now.(v) <- true;
    bump_nbrs v 1;
    incr width;
    sigma.(i) <- v;
    (* Peak overlap is measured before the closures triggered by this
       opening: a vertex closing right now still holds its wire at this
       instant, and so does a vertex whose whole life is this instant. *)
    if !width > !max_width then max_width := !width;
    for k = adj.start.(v) to adj.start.(v) + adj.len.(v) - 1 do
      let w = adj.nbr.(k) in
      pending.(w) <- pending.(w) - 1;
      if open_now.(w) && pending.(w) = 0 then close w
    done;
    if pending.(v) = 0 then close v
  in
  for i = 0 to n - 1 do
    (* Next vertex: stay within budget if possible; keep the open set as
       large as the budget allows (a big open set is what gives the
       matching scheduler parallel work, hence depth); tie-break toward
       vertices with more runnable gates. When nothing fits the budget,
       take the width-minimizing choice and let the final check fail.
       Keys compare lexicographically; the first least key wins. *)
    let best = ref (-1) in
    let k0 = ref max_int and k1 = ref max_int and k2 = ref max_int in
    for v = 0 to n - 1 do
      if not opened.(v) then begin
        let closes = closes_after v in
        let new_width = !width + 1 - closes in
        (* A handoff instant needs both wires live, so the peak must stay
           within budget AND the settled width must leave one wire of
           headroom for the next opening. *)
        let over = !width + 1 > budget || new_width > budget - 1 in
        let a = if over then 1 else 0
        and b = if over then new_width else closes
        and c = - open_nbrs.(v) in
        if a < !k0 || (a = !k0 && (b < !k1 || (b = !k1 && c < !k2))) then begin
          k0 := a;
          k1 := b;
          k2 := c;
          best := v
        end
      end
    done;
    do_open i !best
  done;
  (sigma, !max_width)

let plan_with_budget_t t ~budget =
  if budget < 1 then None
  else begin
    let n = t.n and adj = t.adj in
    let sigma, width = order_for_budget t ~budget in
    if width > budget || n = 0 then None
    else begin
      (* Replay sigma, binding wires first-fit on open and recycling on
         close; chain = host sequence per wire. *)
      let rank = Array.make n 0 in
      Array.iteri (fun i v -> rank.(v) <- i) sigma;
      let close_rank =
        Array.init n (fun v ->
            let r = ref rank.(v) in
            for k = adj.start.(v) to adj.start.(v) + adj.len.(v) - 1 do
              r := max !r rank.(adj.nbr.(k))
            done;
            !r)
      in
      let hosts = Array.make (max 1 budget) [] in
      let wire_free_at = Array.make (max 1 budget) (-1) in
      let wire_load = Array.make (max 1 budget) 0 in
      Array.iter
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
          wire_load.(w) <- wire_load.(w) + t.deg.(v) + 4;
          wire_free_at.(w) <- close_rank.(v))
        sigma;
      let wires =
        List.filter (fun l -> l <> []) (Array.to_list (Array.map List.rev hosts))
      in
      Some (plan_of_wires t wires)
    end
  end

let plan_with_budget g ~budget = plan_with_budget_t (tables g) ~budget

(* One plan per qubit limit, exactly the paper's per-limit query. Two
   generators compete at every limit and the shallower emitted circuit
   wins: the incremental pair-merge path (the paper's §3.2.2 greedy,
   strong for gentle savings because it picks the least-harmful pair)
   and the budget-constrained separation planner (strong for deep
   savings, where incremental merging dead-ends on frozen chain
   orders). The competition reads each plan's dry-run shape; only a
   winner that lowers the usage is emitted, so duplicate usages cost no
   circuit. *)
let sweep ?(mode = `Auto) ?gamma ?beta g =
  Obs.Metrics.time "time.commute" @@ fun () ->
  let t = tables g in
  let ws = workspace t in
  let emitted = ref 0 in
  (* The dry run's depth and usage are the emitted circuit's. *)
  let make_step plan shape =
    incr emitted;
    {
      Engine.usage = shape.used;
      circuit = emit_events ?gamma ?beta plan shape.events;
      pairs = pairs plan;
      depth = shape.depth;
    }
  in
  let base =
    let plan = make_t t in
    make_step plan (shape_with ws plan)
  in
  (* Merge trajectory, deepest first, each plan's shape computed once on
     first use. *)
  let merge_path =
    let rec go plan acc =
      match reduce ws ~mode plan with
      | Some plan' ->
        go plan' ((plan'.usage, plan', lazy (shape_with ws plan')) :: acc)
      | None -> acc
    in
    go (make_t t) []
  in
  let merge_at k =
    (* Deepest merge-path plan with usage <= k. *)
    List.find_opt (fun (u, _, _) -> u <= k) merge_path
  in
  let rec go budget last_usage acc =
    if budget < 1 then List.rev acc
    else begin
      (* The budget plan wins ties on (depth, usage). *)
      let best =
        match (plan_with_budget_t t ~budget, merge_at budget) with
        | None, None -> None
        | Some p, None -> Some (p, shape_with ws p)
        | None, Some (_, p, shape) -> Some (p, Lazy.force shape)
        | Some p1, Some (_, p2, shape2) ->
          let s1 = shape_with ws p1 and s2 = Lazy.force shape2 in
          if s1.depth < s2.depth || (s1.depth = s2.depth && s1.used <= s2.used)
          then Some (p1, s1)
          else Some (p2, s2)
      in
      match best with
      | None -> List.rev acc
      | Some (plan, shape) ->
        if shape.used < last_usage then begin
          let step = make_step plan shape in
          go (min (budget - 1) (shape.used - 1)) shape.used (step :: acc)
        end
        else go (budget - 1) last_usage acc
    end
  in
  let steps = go (base.usage - 1) base.usage [ base ] in
  Obs.Metrics.incr ~by:!emitted "commute.emits";
  steps
