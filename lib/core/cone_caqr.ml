(* Causal-cone qubit reuse (DeCross et al., arxiv 2210.08039).

   The causal cone of a qubit q is the set of qubits whose gates can
   influence q's final measurement — exactly the qubit-level
   reachability projection [Reuse.reaches] already maintains for
   Condition 2. The algorithm:

     1. compute every active qubit's cone on the input analysis;
     2. order qubits ascending by (cone size, id) — the measurement
        whose cone is smallest completes first;
     3. walk the order; for each measurement, lazily allocate every
        not-yet-allocated cone member, preferring to recycle a retired
        (measured-then-reset) wire from the free pool over opening a
        fresh one; then retire the measured qubit's wire into the pool.

   "Recycling wire h for qubit p" is precisely a CaQR reuse pair
   (src = h, dst = p): validity is delegated to [Reuse.valid_srcs] (the
   paper's Conditions 1-2 on the *current* node of the analysis cursor,
   which each committed pair links in place), so the heuristic can never
   commit an unsound splice. Among the valid free wires the one with the
   smallest predicted depth wins, ties to the lowest wire id — the whole
   run is a pure function of the input circuit, and the pool's own order
   never matters.

   Everything is per-run int arrays: the cones are one flat table of
   members in rank order, the order is an int-key sort, and the pool is
   an int set (members plus each wire's slot, -1 outside). *)

let run c =
  Obs.Metrics.incr "cone.runs";
  Obs.Metrics.time "time.cone" @@ fun () ->
  let analysis = Reuse.analyze c in
  let k = max 1 c.Quantum.Circuit.num_qubits in
  let active = Array.of_list (Reuse.active_qubits analysis) in
  let m = Array.length active in
  (* Cones are a property of the *input* dependence structure; computing
     them once up front keeps the measurement order stable while the
     walk rewrites the circuit underneath. Cone sizes are the input's
     reach columns; the order packs (size, id) into one int key. *)
  let size = Array.make k 0 in
  for j = 0 to m - 1 do
    let q = active.(j) in
    for i = 0 to m - 1 do
      if Reuse.reaches analysis active.(i) q then size.(q) <- size.(q) + 1
    done
  done;
  let order = Array.map (fun q -> (size.(q) * k) + q) active in
  Array.sort Int.compare order;
  Array.iteri (fun i key -> order.(i) <- key mod k) order;
  (* Cone members in rank order: cone members allocate in the order their
     own measurements will complete, so the earliest retirees claim
     recycled wires first. Cone [i] (of [order.(i)]) is
     [members.(start.(i)) .. members.(start.(i + 1) - 1)]. *)
  let start = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    start.(i + 1) <- start.(i) + size.(order.(i))
  done;
  let members = Array.make (max 1 start.(m)) 0 in
  for i = 0 to m - 1 do
    let q = order.(i) and at = ref start.(i) in
    for j = 0 to m - 1 do
      if Reuse.reaches analysis order.(j) q then begin
        members.(!at) <- order.(j);
        incr at
      end
    done
  done;
  let allocated = Array.make k false in
  let host = Array.init k Fun.id in
  (* the free pool: retired wires, [slot.(h)] their place in [pool] *)
  let pool = Array.make k 0 and slot = Array.make k (-1) in
  let pooled = ref 0 in
  let row = Array.make k 0 in
  let pairs = ref [] and reuses = ref 0 and unallocated = ref m in
  let tick = Guard.Budget.ticker ~stage:"core.cone" ~site:"cone.alloc" () in
  let allocate p =
    if not allocated.(p) then begin
      tick ();
      allocated.(p) <- true;
      decr unallocated;
      (* the valid srcs ascend, so the strict [<] keeps the lowest id *)
      let n = Reuse.valid_srcs analysis p row in
      let best = ref (-1) and best_depth = ref max_int in
      for i = 0 to n - 1 do
        let h = row.(i) in
        if slot.(h) >= 0 then begin
          let d = Reuse.predict_depth analysis { Reuse.src = h; dst = p } in
          if d < !best_depth then begin
            best := h;
            best_depth := d
          end
        end
      done;
      let h = !best in
      if h >= 0 then begin
        let last = pool.(!pooled - 1) in
        pool.(slot.(h)) <- last;
        slot.(last) <- slot.(h);
        slot.(h) <- -1;
        decr pooled;
        let pr = { Reuse.src = h; dst = p } in
        Reuse.commit analysis pr;
        pairs := pr :: !pairs;
        incr reuses;
        host.(p) <- h
      end
    end
  in
  (* Commit-so-far: every pair in [pairs] was linked into [analysis]
     before the next budget poll, so a wall-clock trip mid-walk leaves a
     consistent (circuit, pairs) prefix — returned as an [Anytime]
     partial result instead of thrown away. *)
  let quality =
    match
      for i = 0 to m - 1 do
        for j = start.(i) to start.(i + 1) - 1 do
          allocate members.(j)
        done;
        (* [order.(i)]'s cone is complete: its wire is measured-then-reset and
           rejoins the pool for the next allocation. *)
        let h = host.(order.(i)) in
        if slot.(h) < 0 then begin
          pool.(!pooled) <- h;
          slot.(h) <- !pooled;
          incr pooled
        end
      done
    with
    | () -> Quality.Exact
    | exception Guard.Error.Budget_exceeded _ ->
      Obs.Metrics.incr "cone.anytime.returns";
      Quality.Anytime { steps_done = !reuses; frontier_left = !unallocated }
  in
  if !reuses > 0 then Obs.Metrics.incr ~by:!reuses "cone.reuses";
  Reuse.flush analysis;
  Engine.of_pairs ~quality ~width:(Reuse.usage analysis)
    (Reuse.circuit analysis) (List.rev !pairs)
