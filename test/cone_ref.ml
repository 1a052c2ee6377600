(* Reference causal-cone engine: the list-based implementation that
   [Caqr.Cone_caqr] replaced, kept verbatim as a test oracle (only this
   header and the [open] are new). The flat engine must return the same
   artifact, pair list, quality and counters on every input. *)

open Caqr

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
   (src = h, dst = p): validity is delegated to [Reuse.valid] (the
   paper's Conditions 1-2 on the *current* node of the analysis cursor,
   which each committed pair links in place), so the heuristic can never
   commit an unsound splice. Among
   the valid free wires the one with the smallest predicted depth wins,
   ties to the lowest wire id — the whole run is a pure function of the
   input circuit. *)

let cone_of analysis active q =
  List.filter (fun p -> Reuse.reaches analysis p q) active

let run c =
  Obs.Metrics.incr "cone.runs";
  Obs.Metrics.time "time.cone" @@ fun () ->
  let analysis = Reuse.analyze c in
  let active = Reuse.active_qubits analysis in
  let k = c.Quantum.Circuit.num_qubits in
  (* Cones are a property of the *input* dependence structure; computing
     them once up front keeps the measurement order stable while the
     walk rewrites the circuit underneath. *)
  let cones = Array.make (max 1 k) [] in
  List.iter (fun q -> cones.(q) <- cone_of analysis active q) active;
  let order =
    List.sort
      (fun a b -> compare (List.length cones.(a), a) (List.length cones.(b), b))
      active
  in
  (* Rank in the measurement order: cone members allocate in the order
     their own measurements will complete, so the earliest retirees
     claim recycled wires first. *)
  let rank = Array.make (max 1 k) max_int in
  List.iteri (fun i q -> rank.(q) <- i) order;
  let allocated = Array.make (max 1 k) false in
  let host = Array.init (max 1 k) Fun.id in
  let free = ref [] (* retired wires, oldest retiree first *) in
  let pairs = ref [] in
  let tick = Guard.Budget.ticker ~stage:"core.cone" ~site:"cone.alloc" () in
  let allocate p =
    if not allocated.(p) then begin
      tick ();
      allocated.(p) <- true;
      let best =
        List.fold_left
          (fun best h ->
            let pr = { Reuse.src = h; dst = p } in
            if not (Reuse.valid analysis pr) then best
            else
              let key = (Reuse.predict_depth analysis pr, h) in
              match best with
              | Some (k0, _) when k0 <= key -> best
              | _ -> Some (key, h))
          None !free
      in
      match best with
      | Some (_, h) ->
        free := List.filter (fun x -> x <> h) !free;
        let pr = { Reuse.src = h; dst = p } in
        Reuse.link analysis pr;
        pairs := pr :: !pairs;
        host.(p) <- h;
        Obs.Metrics.incr "cone.reuses"
      | None -> host.(p) <- p
    end
  in
  (* Commit-so-far: every pair in [pairs] was linked into [analysis]
     before the next budget poll, so a wall-clock trip mid-walk leaves a
     consistent (circuit, pairs) prefix — returned as an [Anytime]
     partial result instead of thrown away. *)
  let quality =
    match
      List.iter
        (fun q ->
          let members =
            List.sort (fun a b -> compare (rank.(a), a) (rank.(b), b)) cones.(q)
          in
          List.iter allocate members;
          (* [q]'s cone is complete: its wire is measured-then-reset and
             rejoins the pool for the next allocation. *)
          free := !free @ [ host.(q) ])
        order
    with
    | () -> Quality.Exact
    | exception Guard.Error.Budget_exceeded _ ->
      Obs.Metrics.incr "cone.anytime.returns";
      let unallocated =
        List.length (List.filter (fun q -> not allocated.(q)) active)
      in
      Quality.Anytime
        {
          steps_done = List.length !pairs;
          frontier_left = unallocated;
        }
  in
  Reuse.flush analysis;
  Engine.of_pairs ~quality ~width:(Reuse.usage analysis)
    (Reuse.circuit analysis) (List.rev !pairs)
