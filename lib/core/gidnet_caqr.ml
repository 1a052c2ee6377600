(* GidNET: graph-based identification of reuse networks (arxiv
   2410.08817), adapted to CaQR's pair IR.

   Each round builds the full candidate-pair digraph — edge p -> q iff
   (src = p, dst = q) satisfies Conditions 1-2 on the *current* analysis
   — and extracts one maximal reuse chain from it: a greedy longest-path
   walk started from every vertex, successors chosen by highest onward
   out-degree (a chain that can keep going beats one that dead-ends), all
   ties broken by lowest qubit id so the run is deterministic. The
   winning chain is committed link by link onto its head wire; every link
   is revalidated against the analysis cursor, which each committed link
   moves in place (folding earlier links can invalidate later ones —
   invalid links are skipped, never forced). The chain's first link is
   an edge of the round's graph, so every round commits at least one pair
   and the loop terminates.

   Global chains are the point: QS-CaQR's pair-at-a-time greedy can
   trap itself by burning a wire that a longer chain needed, while a
   chain of length m retires m - 1 qubits as one decision.

   The graph lives in per-run int arrays: row p of [succ] (k cells from
   [p * k]) lists p's successors ascending, [deg.(p)] of them, filled
   from the cursor's validity rows ({!Reuse.valid_srcs}) dst by dst. A
   walk marks its vertices with a stamp, not a fresh visited array, and
   writes its chain into an int buffer; the longest so far is kept by
   swapping buffers. *)

type graph = {
  k : int;
  succ : int array;  (* row p: p's successors, ascending *)
  deg : int array;  (* out-degree *)
  row : int array;  (* one validity row *)
  seen : int array;  (* [seen.(q) = stamp]: the current walk took q *)
  mutable stamp : int;
  mutable chain : int array;  (* the walk being built *)
  mutable best : int array;  (* the longest walk so far *)
}

(* The round's candidate graph; returns its edge count. *)
let fill g analysis =
  let k = g.k in
  Array.fill g.deg 0 k 0;
  let edges = ref 0 in
  for dst = 0 to k - 1 do
    let n = Reuse.valid_srcs analysis dst g.row in
    for i = 0 to n - 1 do
      let src = g.row.(i) in
      g.succ.((src * k) + g.deg.(src)) <- dst;
      g.deg.(src) <- g.deg.(src) + 1
    done;
    edges := !edges + n
  done;
  !edges

(* Greedy walk from [s] into [g.chain]; returns its length. The rows are
   ascending, so the strict [>] keeps the lowest id among equal
   out-degrees. *)
let walk g s =
  g.stamp <- g.stamp + 1;
  let stamp = g.stamp in
  g.seen.(s) <- stamp;
  g.chain.(0) <- s;
  let len = ref 1 and t = ref s in
  while !t >= 0 do
    let base = !t * g.k and next = ref (-1) in
    for i = 0 to g.deg.(!t) - 1 do
      let q = g.succ.(base + i) in
      if g.seen.(q) <> stamp && (!next < 0 || g.deg.(q) > g.deg.(!next)) then
        next := q
    done;
    if !next >= 0 then begin
      g.seen.(!next) <- stamp;
      g.chain.(!len) <- !next;
      incr len
    end;
    t := !next
  done;
  !len

(* The first longest walk over every start with a successor, ascending;
   it is left in [g.best], and its length returned. *)
let best_chain g =
  let best_len = ref 0 in
  for s = 0 to g.k - 1 do
    if g.deg.(s) > 0 then begin
      let len = walk g s in
      if len > !best_len then begin
        best_len := len;
        let t = g.best in
        g.best <- g.chain;
        g.chain <- t
      end
    end
  done;
  !best_len

let run c =
  Obs.Metrics.incr "gidnet.runs";
  Obs.Metrics.time "time.gidnet" @@ fun () ->
  let k = max 1 c.Quantum.Circuit.num_qubits in
  let analysis = Reuse.analyze c in
  let g =
    {
      k;
      succ = Array.make (k * k) 0;
      deg = Array.make k 0;
      row = Array.make k 0;
      seen = Array.make k 0;
      stamp = 0;
      chain = Array.make k 0;
      best = Array.make k 0;
    }
  in
  let pairs = ref [] and reuses = ref 0 in
  let tick = Guard.Budget.ticker ~stage:"core.gidnet" ~site:"gidnet.chain" () in
  let pending = ref 0 in
  let rec rounds () =
    let edges = fill g analysis in
    if edges > 0 then begin
      pending := edges;
      tick ();
      let len = best_chain g in
      let host = g.best.(0) in
      for i = 1 to len - 1 do
        let pr = { Reuse.src = host; dst = g.best.(i) } in
        if Reuse.valid analysis pr then begin
          Reuse.commit analysis pr;
          pairs := pr :: !pairs;
          incr reuses
        end
      done;
      rounds ()
    end
  in
  (* Commit-so-far: the budget is only polled between rounds, and every
     committed link already updated [analysis], so a trip surfaces the
     chains extracted so far as an [Anytime] partial result. *)
  let quality =
    match rounds () with
    | () -> Quality.Exact
    | exception Guard.Error.Budget_exceeded _ ->
      Obs.Metrics.incr "gidnet.anytime.returns";
      Quality.Anytime { steps_done = !reuses; frontier_left = !pending }
  in
  if !reuses > 0 then Obs.Metrics.incr ~by:!reuses "gidnet.reuses";
  Reuse.flush analysis;
  Engine.of_pairs ~quality ~width:(Reuse.usage analysis)
    (Reuse.circuit analysis) (List.rev !pairs)
