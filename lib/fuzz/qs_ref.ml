type outcome =
  | Found of Quantum.Circuit.t * Caqr.Reuse.pair list
  | Exhausted
  | Cut

let key order analysis p =
  match order with
  | Caqr.Qs_caqr.Score | Both -> (Caqr.Reuse.predict_depth analysis p, 0)
  | Chain ->
    ( Caqr.Reuse.src_finish_depth analysis p,
      Caqr.Reuse.dst_start_depth analysis p )

(* Budgeted DFS for [target] qubits, candidates best key first. *)
let dfs order budget target circuit =
  let nodes = ref 0 in
  let ordered analysis =
    List.stable_sort
      (fun a b -> compare (key order analysis a) (key order analysis b))
      (Caqr.Reuse.valid_pairs analysis)
  in
  let rec go circuit pairs =
    if Caqr.Reuse.qubit_usage circuit <= target then
      Found (circuit, List.rev pairs)
    else if !nodes > budget then Cut
    else
      let rec attempt = function
        | [] -> Exhausted
        | p :: rest ->
          incr nodes;
          Obs.Metrics.incr "qs.search.nodes";
          if !nodes > budget then Cut
          else (
            match go (Caqr.Reuse.apply circuit p) (p :: pairs) with
            | Found _ as r -> r
            | Cut -> Cut
            | Exhausted -> attempt rest)
      in
      attempt (ordered (Caqr.Reuse.analyze circuit))
  in
  go circuit []

(* [Both]: the [Score] pass, then the [Chain] pass if it found nothing. *)
let search ?(opts = Caqr.Qs_caqr.default_opts) ~target circuit =
  let run order =
    match dfs order opts.Caqr.Qs_caqr.budget target circuit with
    | Found (c, pairs) -> Some (c, pairs)
    | Exhausted | Cut -> None
  in
  match opts.order with
  | (Score | Chain) as order -> run order
  | Both -> (match run Score with Some _ as r -> r | None -> run Chain)

let sweep ?opts circuit =
  let rec descend target rows =
    if target < 1 then List.rev rows
    else
      match search ?opts ~target circuit with
      | Some (c, pairs) ->
        descend
          (Caqr.Reuse.qubit_usage c - 1)
          (Caqr.Engine.make_step c pairs :: rows)
      | None -> List.rev rows
  in
  descend
    (Caqr.Reuse.qubit_usage circuit - 1)
    [ Caqr.Engine.make_step circuit [] ]
