(* Reference GidNET engine: the list-based implementation that
   [Caqr.Gidnet_caqr] replaced, kept verbatim as a test oracle (only this
   header and the [open] are new). The flat engine must return the same
   artifact, pair list, quality and counters on every input. *)

open Caqr

(* GidNET: graph-based identification of reuse networks (arxiv
   2410.08817), adapted to CaQR's pair IR.

   Each round materializes the full candidate-pair digraph from
   [Reuse.valid_pairs] — edge p -> q iff (src = p, dst = q) satisfies
   Conditions 1-2 on the *current* analysis — and extracts one maximal
   reuse chain from it: a greedy longest-path walk started from every
   vertex, successors chosen by highest onward out-degree (a chain that
   can keep going beats one that dead-ends), all ties broken by lowest
   qubit id so the run is deterministic. The winning chain is committed
   link by link onto its head wire; every link is revalidated against
   the analysis cursor, which each committed link moves in place
   (folding earlier links can invalidate later ones — invalid links are
   skipped, never forced).
   The first link comes straight out of [valid_pairs], so every round
   commits at least one pair and the loop terminates.

   Global chains are the point: QS-CaQR's pair-at-a-time greedy can
   trap itself by burning a wire that a longer chain needed, while a
   chain of length m retires m - 1 qubits as one decision. *)

(* Longest greedy path from [s] over successor lists [succs]. *)
let walk_from ~k ~succs ~out_deg s =
  let visited = Array.make k false in
  visited.(s) <- true;
  let rec go t acc =
    let next =
      List.fold_left
        (fun best q ->
          if visited.(q) then best
          else
            match best with
            | Some b when (out_deg.(b), -b) >= (out_deg.(q), -q) -> best
            | _ -> Some q)
        None succs.(t)
    in
    match next with
    | None -> List.rev acc
    | Some q ->
      visited.(q) <- true;
      go q (q :: acc)
  in
  go s [ s ]

let best_chain ~k cands =
  let succs = Array.make k [] and out_deg = Array.make k 0 in
  List.iter
    (fun { Reuse.src; dst } ->
      succs.(src) <- dst :: succs.(src);
      out_deg.(src) <- out_deg.(src) + 1)
    cands;
  (* [valid_pairs] enumerates ascending; keep successor lists ascending
     so the fold's ties resolve to the lowest id. *)
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  let starts =
    List.sort_uniq compare (List.map (fun p -> p.Reuse.src) cands)
  in
  List.fold_left
    (fun best s ->
      let chain = walk_from ~k ~succs ~out_deg s in
      match best with
      | Some b when List.length b >= List.length chain -> best
      | _ -> Some chain)
    None starts
  |> Option.get

let run c =
  Obs.Metrics.incr "gidnet.runs";
  Obs.Metrics.time "time.gidnet" @@ fun () ->
  let k = max 1 c.Quantum.Circuit.num_qubits in
  let analysis = Reuse.analyze c in
  let pairs = ref [] in
  let tick = Guard.Budget.ticker ~stage:"core.gidnet" ~site:"gidnet.chain" () in
  let pending = ref 0 in
  let rec rounds () =
    let cands = Reuse.valid_pairs analysis in
    if cands <> [] then begin
      pending := List.length cands;
      tick ();
      match best_chain ~k cands with
      | host :: rest ->
        List.iter
          (fun x ->
            let pr = { Reuse.src = host; dst = x } in
            if Reuse.valid analysis pr then begin
              Reuse.link analysis pr;
              pairs := pr :: !pairs;
              Obs.Metrics.incr "gidnet.reuses"
            end)
          rest;
        rounds ()
      | [] -> ()
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
      Quality.Anytime
        { steps_done = List.length !pairs; frontier_left = !pending }
  in
  Reuse.flush analysis;
  Engine.of_pairs ~quality ~width:(Reuse.usage analysis)
    (Reuse.circuit analysis) (List.rev !pairs)
