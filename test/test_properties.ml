(* Property-based tests (qcheck) for the core invariants. *)

(* Pin the generator seed: property tests must be reproducible in CI.
   Each property gets its own state, seeded from its name — identical
   seeds would make every property explore the same underlying stream,
   correlating their inputs (and their blind spots). *)
let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xca9; Hashtbl.hash name |])
    t

(* ---- Generators ---- *)

(* A random undirected graph as (n, edges). *)
let graph_gen =
  QCheck.Gen.(
    sized_size (int_range 2 24) (fun n ->
        let pair = map2 (fun a b -> (a mod n, b mod n)) (int_bound 1000) (int_bound 1000) in
        map
          (fun es -> (n, List.filter (fun (a, b) -> a <> b) es))
          (list_size (int_range 0 (2 * n)) pair)))

let arb_graph =
  QCheck.make graph_gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) es)))

let build_graph (n, es) = Galg.Graph.of_edges n es

(* A random shallow circuit on [n] qubits: H / CX / RZ / measure-free. *)
let circuit_gen =
  QCheck.Gen.(
    sized_size (int_range 2 6) (fun n ->
        let gate =
          frequency
            [
              (3, map (fun q -> `H (q mod n)) (int_bound 100));
              ( 5,
                map2
                  (fun a b ->
                    let a = a mod n and b = b mod n in
                    if a = b then `H a else `Cx (a, b))
                  (int_bound 100) (int_bound 100) );
              (2, map (fun q -> `Rz (q mod n)) (int_bound 100));
            ]
        in
        map (fun gs -> (n, gs)) (list_size (int_range 1 25) gate)))

let arb_circuit =
  QCheck.make circuit_gen ~print:(fun (n, gs) ->
      Printf.sprintf "n=%d gates=%d" n (List.length gs))

let build_circuit (n, gs) =
  let b = Quantum.Circuit.Builder.create ~num_qubits:n ~num_clbits:n in
  List.iter
    (function
      | `H q -> Quantum.Circuit.Builder.h b q
      | `Cx (a, c) -> Quantum.Circuit.Builder.cx b a c
      | `Rz q -> Quantum.Circuit.Builder.rz b 0.3 q)
    gs;
  Quantum.Circuit.Builder.build b

(* The same circuit with trailing measurement of every active qubit. *)
let build_measured spec =
  Quantum.Circuit.measure_all (build_circuit spec)

(* ---- Graph properties ---- *)

let prop_size_consistent =
  QCheck.Test.make ~name:"graph: size = |edges|" ~count:100 arb_graph (fun spec ->
      let g = build_graph spec in
      Galg.Graph.size g = List.length (Galg.Graph.edges g))

let prop_degree_sum =
  QCheck.Test.make ~name:"graph: sum deg = 2m" ~count:100 arb_graph (fun spec ->
      let g = build_graph spec in
      let sum =
        Galg.Graph.fold_vertices (fun v acc -> acc + Galg.Graph.degree g v) g 0
      in
      sum = 2 * Galg.Graph.size g)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"graph: bfs satisfies edge relaxation" ~count:50 arb_graph
    (fun spec ->
      let g = build_graph spec in
      let n = Galg.Graph.order g in
      if n = 0 then true
      else begin
        let d = Galg.Graph.bfs_dist g 0 in
        List.for_all
          (fun (u, v) ->
            (d.(u) = max_int && d.(v) = max_int)
            || abs (d.(u) - d.(v)) <= 1)
          (Galg.Graph.edges g)
      end)

(* ---- Coloring properties ---- *)

let prop_coloring_proper =
  QCheck.Test.make ~name:"coloring: dsatur is proper" ~count:100 arb_graph
    (fun spec ->
      let g = build_graph spec in
      Galg.Coloring.is_proper g (Galg.Coloring.dsatur g))

let prop_coloring_bound =
  QCheck.Test.make ~name:"coloring: count <= maxdeg + 1" ~count:100 arb_graph
    (fun spec ->
      let g = build_graph spec in
      (Galg.Coloring.best g).Galg.Coloring.count <= Galg.Graph.max_degree g + 1)

(* ---- Matching properties ---- *)

let prop_blossom_valid =
  QCheck.Test.make ~name:"matching: blossom valid + maximal" ~count:100 arb_graph
    (fun spec ->
      let g = build_graph spec in
      let m = Galg.Matching.blossom g in
      Galg.Matching.is_valid g m && Galg.Matching.is_maximal g m)

(* The flat kernel's vertex masks and the closures the frozen reference
   ([Matching_ref]) takes for them: an edge is kept when both endpoints
   are eligible, a priority edge when either endpoint is a priority
   vertex, and weighted as the scheduler's float weight was: 10000 per
   priority edge plus the endpoints' list lengths. *)
let closures (a : Galg.Matching.adj) ~elig ~prio =
  let keep u v = elig.(u) && elig.(v) in
  let priority u v = prio.(u) || prio.(v) in
  let weight u v =
    (if priority u v then 10000. else 0.)
    +. float_of_int (a.len.(u) + a.len.(v))
  in
  (keep, priority, weight)

let prop_blossom_geq_greedy =
  QCheck.Test.make ~name:"matching: blossom >= greedy" ~count:100 arb_graph
    (fun spec ->
      let g = build_graph spec in
      let n = Galg.Graph.order g in
      let a = Galg.Matching.adj_of_graph g in
      let b = Galg.Matching.blossom g in
      let gr =
        Galg.Matching.greedy_into (Galg.Matching.work a) a
          ~elig:(Array.make n true) ~prio:(Array.make n false)
      in
      Galg.Matching.cardinality b >= Galg.Matching.cardinality gr)

let prop_priority_valid =
  QCheck.Test.make ~name:"matching: priority matching valid" ~count:100 arb_graph
    (fun spec ->
      let g = build_graph spec in
      let n = Galg.Graph.order g in
      let a = Galg.Matching.adj_of_graph g in
      let m =
        Galg.Matching.priority_into (Galg.Matching.work a) a
          ~elig:(Array.make n true)
          ~prio:(Array.init n (fun v -> v mod 2 = 0))
      in
      Galg.Matching.is_valid g m)

let prop_flat_kernel_filters =
  QCheck.Test.make ~name:"matching: flat kernel = adapters on the kept subgraph"
    ~count:100 arb_graph (fun spec ->
      let g = build_graph spec in
      let n = Galg.Graph.order g in
      let elig = Array.init n (fun v -> (2 * v) mod 3 <> 0) in
      let prio = Array.init n (fun v -> v mod 2 = 0) in
      let a = Galg.Matching.adj_of_graph g in
      let keep, priority, weight = closures a ~elig ~prio in
      let kept =
        Galg.Graph.of_edges n
          (List.filter (fun (u, v) -> keep u v) (Galg.Graph.edges g))
      in
      let w = Galg.Matching.work a in
      (* Two calls on one workspace: scratch reuse must not leak state. *)
      let m1 = Array.copy (Galg.Matching.priority_into w a ~elig ~prio) in
      let m2 = Array.copy (Galg.Matching.greedy_into w a ~elig ~prio) in
      m1 = Matching_ref.priority_matching ~priority kept
      && m2 = Matching_ref.greedy ~weight kept)

(* The flat kernel against references built without it: the greedy
   picks what the list-sorting one (kept in Commute_ref) picks, ties
   included, and the two-phase priority matching is the frozen blossom
   on the kept priority edges, then on the other kept edges between the
   vertices phase 1 left free. *)
let prop_kernels_match_references =
  QCheck.Test.make ~name:"matching: greedy and priority kernels = references"
    ~count:100 arb_graph (fun spec ->
      let g = build_graph spec in
      let n = Galg.Graph.order g in
      let elig = Array.init n (fun v -> (v * 7) mod 5 <> 0) in
      let prio = Array.init n (fun v -> v mod 3 = 0) in
      let a = Galg.Matching.adj_of_graph g in
      let keep, priority, weight = closures a ~elig ~prio in
      let w = Galg.Matching.work a in
      let greedy = Array.copy (Galg.Matching.greedy_into w a ~elig ~prio) in
      let prio_m = Array.copy (Galg.Matching.priority_into w a ~elig ~prio) in
      let sub p =
        Galg.Graph.of_edges n
          (List.filter (fun (u, v) -> keep u v && p u v) (Galg.Graph.edges g))
      in
      let first = Matching_ref.blossom (sub priority) in
      let second =
        Matching_ref.blossom
          (sub (fun u v ->
               (not (priority u v)) && first.(u) < 0 && first.(v) < 0))
      in
      greedy = Commute_ref.greedy_into a ~keep ~weight
      && prio_m
         = Array.init n (fun v -> if first.(v) >= 0 then first.(v) else second.(v)))

(* Random graphs of 2-40 vertices with random eligibility and priority
   masks, in three shapes: free masks; every vertex a priority vertex,
   so phase 2 has no edges; and a planted perfect matching of priority
   edges (2i, 2i+1) with the odd vertices plain, so phase 1 matches
   every vertex while phase 2 still has edges between odd vertices. *)
type mask_case = {
  mc_graph : Galg.Graph.t;
  mc_shape : int;
  mc_masks : (bool array * bool array) list;
}

let mask_case_gen =
  QCheck.Gen.(
    int_range 2 40 >>= fun n ->
    int_bound 2 >>= fun shape ->
    int_bound 1_000_000 >|= fun seed ->
    let rs = Random.State.make [| seed |] in
    let n = if shape = 2 then n + (n mod 2) else n in
    let pct = Random.State.int rs 61 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Random.State.int rs 100 < pct || (shape = 2 && u mod 2 = 0 && v = u + 1)
        then edges := (u, v) :: !edges
      done
    done;
    let masks () =
      match shape with
      | 0 ->
        ( Array.init n (fun _ -> Random.State.int rs 4 > 0),
          Array.init n (fun _ -> Random.State.bool rs) )
      | 1 -> (Array.init n (fun _ -> Random.State.int rs 4 > 0), Array.make n true)
      | _ -> (Array.make n true, Array.init n (fun v -> v mod 2 = 0))
    in
    let m1 = masks () in
    let m2 = masks () in
    { mc_graph = Galg.Graph.of_edges n !edges; mc_shape = shape; mc_masks = [ m1; m2 ] })

let prop_mask_kernel_frozen =
  QCheck.Test.make ~name:"matching: mask kernel = frozen reference (2-40)"
    ~count:300
    (QCheck.make mask_case_gen ~print:(fun c ->
         Format.asprintf "shape %d %a" c.mc_shape Galg.Graph.pp c.mc_graph))
    (fun c ->
      let g = c.mc_graph in
      let a = Galg.Matching.adj_of_graph g in
      (* One workspace for every call: a stale stamp would show as a
         mate that a fresh reference workspace does not produce. *)
      let w = Galg.Matching.work a in
      List.for_all
        (fun (elig, prio) ->
          let keep, priority, weight = closures a ~elig ~prio in
          let ref_work = Matching_ref.work a in
          let p = Array.copy (Galg.Matching.priority_into w a ~elig ~prio) in
          let p_ref = Matching_ref.priority_into ref_work a ~keep ~priority in
          let same_p = p = p_ref in
          let gr = Array.copy (Galg.Matching.greedy_into w a ~elig ~prio) in
          let gr_ref = Matching_ref.greedy_into ref_work a ~keep ~weight in
          same_p && gr = gr_ref
          && (c.mc_shape <> 2 || Array.for_all (fun m -> m >= 0) p))
        c.mc_masks)

(* ---- Circuit / DAG properties ---- *)

let prop_depth_bounds =
  QCheck.Test.make ~name:"circuit: depth <= gates, >= gates/qubits" ~count:100
    arb_circuit (fun spec ->
      let c = build_circuit spec in
      let d = Quantum.Circuit.depth c in
      d <= Quantum.Circuit.gate_count c
      && d * c.Quantum.Circuit.num_qubits >= Quantum.Circuit.gate_count c)

let prop_dag_edges_forward =
  QCheck.Test.make ~name:"dag: edges go forward in gate order" ~count:100
    arb_circuit (fun spec ->
      let dag = Quantum.Dag.build (build_circuit spec) in
      let ok = ref true in
      for i = 0 to Quantum.Dag.num_nodes dag - 1 do
        Quantum.Dag.iter_succs (fun j -> if j <= i then ok := false) dag i
      done;
      !ok)

(* Dynamic circuits from [Fuzz.Gen]: barriers, measurements, resets and
   conditional X, so reach also flows through barrier and clbit edges. *)
let arb_dynamic_circuit =
  QCheck.make
    QCheck.Gen.(map (fun seed -> Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make seed)) int)
    ~print:Quantum.Qasm.to_string

(* [Reuse.reaches p q] against a DFS over [Dag.build] from every gate on
   wire p, projected onto the wires of the non-barrier gates it finds. *)
let prop_reachability_matches_dfs =
  QCheck.Test.make ~name:"reachability: bitset closure = DFS" ~count:200
    arb_dynamic_circuit (fun c ->
      let a = Caqr.Reuse.analyze c in
      let dag = Quantum.Dag.build c in
      let n = Quantum.Dag.num_nodes dag and k = c.Quantum.Circuit.num_qubits in
      let wires i =
        let kind = c.Quantum.Circuit.gates.(i).Quantum.Gate.kind in
        if Quantum.Gate.is_barrier kind then [] else Quantum.Gate.qubits kind
      in
      let projection p =
        let seen = Array.make n false and reached = Array.make k false in
        let rec go j =
          if not seen.(j) then begin
            seen.(j) <- true;
            List.iter (fun q -> reached.(q) <- true) (wires j);
            Quantum.Dag.iter_succs go dag j
          end
        in
        for i = 0 to n - 1 do
          if List.mem p (wires i) then go i
        done;
        reached
      in
      let ok = ref true in
      for p = 0 to k - 1 do
        let reached = projection p in
        for q = 0 to k - 1 do
          if Caqr.Reuse.reaches a p q <> reached.(q) then ok := false
        done
      done;
      !ok)

let prop_compact_preserves_gates =
  QCheck.Test.make ~name:"circuit: compaction keeps gate count" ~count:100
    arb_circuit (fun spec ->
      let c = build_circuit spec in
      let c', _ = Quantum.Circuit.compact_qubits c in
      Quantum.Circuit.gate_count c' = Quantum.Circuit.gate_count c)

(* [Builder.build] equals [of_kinds] of the added kinds, ids included,
   and a gate with an out-of-range qubit or clbit raises at [add],
   leaving the builder as it was. *)
let prop_builder_matches_of_kinds =
  QCheck.Test.make ~name:"circuit: builder = of_kinds, range checked at add"
    ~count:200 QCheck.(int_bound 1_000_000) (fun seed ->
      let c = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make seed) in
      let num_qubits = c.Quantum.Circuit.num_qubits in
      let num_clbits = c.Quantum.Circuit.num_clbits in
      let kinds = Array.to_list (Array.map (fun g -> g.Quantum.Gate.kind) c.gates) in
      let b = Quantum.Circuit.Builder.create ~num_qubits ~num_clbits in
      List.iter (Quantum.Circuit.Builder.add b) kinds;
      let raises k =
        match Quantum.Circuit.Builder.add b k with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      let bad_qubit = raises (Quantum.Gate.Cx (0, num_qubits)) in
      let bad_clbit = raises (Quantum.Gate.Measure (0, num_clbits)) in
      let built = Quantum.Circuit.Builder.build b in
      let expected = Quantum.Circuit.of_kinds ~num_qubits ~num_clbits kinds in
      bad_qubit && bad_clbit && built = expected
      && Array.for_all2 (fun (g : Quantum.Gate.t) (h : Quantum.Gate.t) -> g.id = h.id)
           built.gates expected.gates)

(* ---- Simulator properties ---- *)

let prop_norm_preserved =
  QCheck.Test.make ~name:"sim: unitary gates preserve norm" ~count:60 arb_circuit
    (fun spec ->
      let c = build_circuit spec in
      let st = Sim.State.init c.Quantum.Circuit.num_qubits in
      Array.iter
        (fun g ->
          match g.Quantum.Gate.kind with
          | Quantum.Gate.One_q (gq, q) -> Sim.State.apply_one_q st gq q
          | Quantum.Gate.Cx (a, b) -> Sim.State.apply_cx st a b
          | _ -> ())
        c.Quantum.Circuit.gates;
      Float.abs (Sim.State.norm2 st -. 1.) < 1e-9)

let prop_probabilities_sum =
  QCheck.Test.make ~name:"sim: probabilities sum to 1" ~count:40 arb_circuit
    (fun spec ->
      let c = build_circuit spec in
      let st = Sim.State.init c.Quantum.Circuit.num_qubits in
      Array.iter
        (fun g ->
          match g.Quantum.Gate.kind with
          | Quantum.Gate.One_q (gq, q) -> Sim.State.apply_one_q st gq q
          | Quantum.Gate.Cx (a, b) -> Sim.State.apply_cx st a b
          | _ -> ())
        c.Quantum.Circuit.gates;
      let s = Array.fold_left ( +. ) 0. (Sim.State.probabilities st) in
      Float.abs (s -. 1.) < 1e-9)

let prop_tvd_range =
  QCheck.Test.make ~name:"counts: tvd in [0,1] and symmetric" ~count:50
    QCheck.(pair (list (int_bound 7)) (list (int_bound 7)))
    (fun (xs, ys) ->
      let mk l =
        let c = Sim.Counts.create ~num_clbits:3 in
        List.iter (Sim.Counts.add c) l;
        c
      in
      let a = mk xs and b = mk ys in
      let t = Sim.Counts.tvd a b in
      t >= 0. && t <= 1. && Float.abs (t -. Sim.Counts.tvd b a) < 1e-12)

(* A unitary prefix (as [circuit_gen]) followed by a block of final
   measurements into at most three clbits, so that several measurements
   usually write the same clbit. *)
let arb_shared_measures =
  QCheck.make
    QCheck.Gen.(
      triple circuit_gen (int_range 1 3)
        (list_size (int_range 1 8) (pair (int_bound 100) (int_bound 100))))
    ~print:(fun ((n, gs), k, ms) ->
      Printf.sprintf "n=%d gates=%d clbits=%d measures=[%s]" n (List.length gs)
        k
        (String.concat ";"
           (List.map
              (fun (q, c) -> Printf.sprintf "%d->%d" (q mod n) (c mod k))
              ms)))

let prop_shared_clbit_last_write =
  QCheck.Test.make
    ~name:"sim: overwritten final measurements leave distribution unchanged"
    ~count:100 arb_shared_measures (fun (((n, _) as spec), k, ms) ->
      let ms = List.map (fun (q, c) -> (q mod n, c mod k)) ms in
      let prefix =
        Array.to_list
          (Array.map
             (fun g -> g.Quantum.Gate.kind)
             (build_circuit spec).Quantum.Circuit.gates)
      in
      let build ms =
        Quantum.Circuit.of_kinds ~num_qubits:n ~num_clbits:k
          (prefix @ List.map (fun (q, c) -> Quantum.Gate.Measure (q, c)) ms)
      in
      (* Drop every measurement whose clbit a later one overwrites. *)
      let rec last_writes = function
        | [] -> []
        | (q, c) :: rest ->
          let rest = last_writes rest in
          if List.exists (fun (_, c') -> c' = c) rest then rest
          else (q, c) :: rest
      in
      Sim.Counts.equal
        (Sim.Executor.distribution ~seed:1 (build ms))
        (Sim.Executor.distribution ~seed:1 (build (last_writes ms))))

(* ---- Reuse properties ---- *)

let prop_predict_depth_exact =
  QCheck.Test.make ~name:"reuse: predicted depth = actual" ~count:60 arb_circuit
    (fun spec ->
      let c = build_measured spec in
      let a = Caqr.Reuse.analyze c in
      List.for_all
        (fun p ->
          Caqr.Reuse.predict_depth a p
          = Quantum.Circuit.depth (Caqr.Reuse.apply c p))
        (Caqr.Reuse.valid_pairs a))

let prop_apply_drops_usage =
  QCheck.Test.make ~name:"reuse: apply drops usage by one" ~count:60 arb_circuit
    (fun spec ->
      let c = build_measured spec in
      let a = Caqr.Reuse.analyze c in
      match Caqr.Reuse.valid_pairs a with
      | [] -> true
      | p :: _ ->
        Caqr.Reuse.qubit_usage (Caqr.Reuse.apply c p)
        = Caqr.Reuse.qubit_usage c - 1)

let prop_apply_preserves_distribution =
  QCheck.Test.make ~name:"reuse: apply preserves output distribution" ~count:12
    arb_circuit (fun spec ->
      let c = build_measured spec in
      let a = Caqr.Reuse.analyze c in
      match Caqr.Reuse.valid_pairs a with
      | [] -> true
      | p :: _ ->
        let c' = Caqr.Reuse.apply c p in
        let d0 = Sim.Executor.run ~seed:5 ~shots:1500 c in
        let d1 = Sim.Executor.run ~seed:6 ~shots:1500 c' in
        (* statistical tolerance for 1500-shot histograms on <= 6 bits *)
        Sim.Counts.tvd d0 d1 < 0.12)

let prop_sweep_usage_decreases =
  QCheck.Test.make ~name:"qs: sweep strictly decreases usage" ~count:30 arb_circuit
    (fun spec ->
      let c = build_measured spec in
      let steps = Caqr.Qs_caqr.sweep c in
      let rec ok = function
        | (a : Caqr.Engine.step) :: (b :: _ as r) -> a.usage > b.usage && ok r
        | _ -> true
      in
      ok steps)

(* ---- Commute properties ---- *)

let prop_commute_chains_independent =
  QCheck.Test.make ~name:"commute: sweep chains are independent sets" ~count:40
    arb_graph (fun spec ->
      let g = build_graph spec in
      let steps = Caqr.Commute.sweep ~mode:`Heuristic g in
      let n = Galg.Graph.order g in
      (* A pair src -> dst hands src's wire to dst: following the pairs
         from every vertex no pair hands a wire to rebuilds the chains. *)
      let chains (s : Caqr.Engine.step) =
        let next = Array.make n (-1) and fed = Array.make n false in
        List.iter
          (fun (p : Caqr.Reuse.pair) ->
            next.(p.src) <- p.dst;
            fed.(p.dst) <- true)
          s.pairs;
        let rec chain v = if v < 0 then [] else v :: chain next.(v) in
        List.filter_map
          (fun v -> if fed.(v) then None else Some (chain v))
          (List.init n Fun.id)
      in
      List.for_all
        (fun s ->
          List.for_all
            (fun members ->
              List.for_all
                (fun a ->
                  List.for_all
                    (fun b -> a = b || not (Galg.Graph.has_edge g a b))
                    members)
                members)
            (chains s))
        steps)

let prop_commute_emit_complete =
  QCheck.Test.make ~name:"commute: emit keeps every gate" ~count:40 arb_graph
    (fun spec ->
      let g = build_graph spec in
      let c = Caqr.Commute.emit (Caqr.Commute.make g) in
      Quantum.Circuit.two_q_count c = Galg.Graph.size g)

let prop_commute_emit_reuse_complete =
  QCheck.Test.make ~name:"commute: reused emit keeps every gate" ~count:30 arb_graph
    (fun spec ->
      let g = build_graph spec in
      let steps = Caqr.Commute.sweep ~mode:`Heuristic g in
      let last = List.nth steps (List.length steps - 1) in
      Quantum.Circuit.two_q_count last.Caqr.Engine.circuit = Galg.Graph.size g)

(* A random problem graph on [lo .. hi] vertices at a random density;
   sparse draws leave gateless (isolated) vertices, which chains must
   hand the wire through. *)
let arb_problem lo hi =
  QCheck.make
    ~print:(Format.asprintf "%a" Galg.Graph.pp)
    QCheck.Gen.(
      int_range lo hi >>= fun n ->
      int_range 0 60 >>= fun pct ->
      int_bound 100_000 >|= fun seed ->
      Galg.Gen.random ~seed n ~density:(float_of_int pct /. 100.))

let prop_commute_sweep_equivalent =
  QCheck.Test.make ~name:"commute: sweep steps exactly equivalent (n <= 8)"
    ~count:80 (arb_problem 2 8) (fun g ->
      let original = Caqr.Commute.emit (Caqr.Commute.make g) in
      List.for_all
        (fun (s : Caqr.Engine.step) ->
          Verify.Equiv.check ~original ~transformed:s.circuit ()
          = Verify.Verdict.Equivalent)
        (Caqr.Commute.sweep g))

(* Both sweeps return the same step record: its fields agree with its
   circuit, usages strictly decrease, and each step adds exactly one
   pair. *)
let sweep_steps_consistent steps =
  let rec decreasing = function
    | (a : Caqr.Engine.step) :: (b :: _ as r) -> a.usage > b.usage && decreasing r
    | _ -> true
  in
  match steps with
  | [] -> false
  | (first : Caqr.Engine.step) :: _ ->
    decreasing steps
    && List.for_all
         (fun (s : Caqr.Engine.step) ->
           s.usage = Caqr.Reuse.qubit_usage s.circuit
           && s.depth = Quantum.Circuit.depth s.circuit
           && List.length s.pairs = first.usage - s.usage)
         steps

let prop_shared_sweep_steps =
  QCheck.Test.make ~name:"sweep: shared steps consistent (regular, commutable)"
    ~count:30
    (QCheck.pair arb_circuit (arb_problem 2 12))
    (fun (spec, g) ->
      sweep_steps_consistent
        (Caqr.Pipeline.steps (Caqr.Pipeline.Regular (build_measured spec)))
      && sweep_steps_consistent
           (Caqr.Pipeline.steps (Caqr.Pipeline.Commutable g)))

(* Every plan a merge trajectory or the budget planner produces. *)
let plans_of g =
  let rec path p acc =
    match Caqr.Commute.reduce_once ~mode:`Heuristic p with
    | Some p' -> path p' (p' :: acc)
    | None -> acc
  in
  let n = Galg.Graph.order g in
  path (Caqr.Commute.make g) [ Caqr.Commute.make g ]
  @ List.filter_map
      (fun budget -> Caqr.Commute.plan_with_budget g ~budget)
      (List.init n (fun k -> k + 1))

let prop_commute_rounds_geq_chain_load =
  QCheck.Test.make ~name:"commute: schedule_rounds >= chain-load bound"
    ~count:40 (arb_problem 2 30) (fun g ->
      List.for_all
        (fun p ->
          let bound = Caqr.Commute.rounds_lower_bound p in
          Caqr.Commute.schedule_rounds ~exact:true p >= bound
          && Caqr.Commute.schedule_rounds ~exact:false p >= bound)
        (plans_of g))

(* [emit_shape]'s dry run against the circuit [emit] builds, on every
   plan of [plans_of g] and every plan the sweep's budget loop compares
   (the [`Exact] merge path and the budget planner's plans). *)
let prop_commute_emit_shape_exact =
  QCheck.Test.make ~name:"commute: emit_shape = depth and usage of emit"
    ~count:40 (arb_problem 2 30) (fun g ->
      let rec exact_path p acc =
        match Caqr.Commute.reduce_once ~mode:`Exact p with
        | Some p' -> exact_path p' (p' :: acc)
        | None -> acc
      in
      List.for_all
        (fun p ->
          let c = Caqr.Commute.emit p in
          Caqr.Commute.emit_shape p
          = (Quantum.Circuit.depth c, Caqr.Reuse.qubit_usage c))
        (plans_of g @ exact_path (Caqr.Commute.make g) []))

(* The unpruned [`Exact] step: schedule every valid candidate among the
   first 48 in combined-wire-load order, keep the first with the fewest
   rounds. Validity is the list-based reference's, so this oracle shares
   no validity code with the kernel under test. *)
let reference_reduce_once p =
  let g = Caqr.Commute.graph p in
  let reference = Commute_ref.of_pairs g (Caqr.Commute.pairs p) in
  let heads = Caqr.Commute.wires p in
  let load head =
    List.fold_left
      (fun acc v -> acc + Galg.Graph.degree g v + 2)
      0 (Caqr.Commute.chain p head)
  in
  let tail head = List.hd (List.rev (Caqr.Commute.chain p head)) in
  let candidates =
    List.concat_map
      (fun ha ->
        List.filter_map
          (fun hb ->
            if hb = ha then None else Some (load ha + load hb, (tail ha, hb)))
          heads)
      heads
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
    |> List.filter (fun (src, dst) ->
           Commute_ref.valid_merge reference ~src ~dst)
    |> List.filteri (fun i _ -> i < 48)
  in
  List.fold_left
    (fun best (src, dst) ->
      let p' = Caqr.Commute.merge p ~src ~dst in
      let r = Caqr.Commute.schedule_rounds p' in
      match best with
      | Some (_, r') when r' <= r -> best
      | _ -> Some (p', r))
    None candidates
  |> Option.map fst

let prop_commute_pruned_exact_matches_reference =
  QCheck.Test.make ~name:"commute: pruned Exact step = unpruned reference"
    ~count:25 (arb_problem 2 30) (fun g ->
      let rec walk p =
        match
          (Caqr.Commute.reduce_once ~mode:`Exact p, reference_reduce_once p)
        with
        | None, None -> true
        | Some a, Some b ->
          Caqr.Commute.pairs a = Caqr.Commute.pairs b && walk a
        | _ -> false
      in
      walk (Caqr.Commute.make g))

(* ---- Optimizer properties ---- *)

let prop_optimize_never_grows =
  QCheck.Test.make ~name:"optimize: gate count never increases" ~count:100
    arb_circuit (fun spec ->
      let c = build_circuit spec in
      Quantum.Circuit.gate_count (Quantum.Optimize.peephole c)
      <= Quantum.Circuit.gate_count c)

let prop_optimize_idempotent =
  QCheck.Test.make ~name:"optimize: idempotent" ~count:100 arb_circuit
    (fun spec ->
      let o = Quantum.Optimize.peephole (build_circuit spec) in
      Quantum.Circuit.gate_count (Quantum.Optimize.peephole o)
      = Quantum.Circuit.gate_count o)

let prop_optimize_preserves_distribution =
  QCheck.Test.make ~name:"optimize: distribution preserved" ~count:15
    arb_circuit (fun spec ->
      let c = build_measured spec in
      let o = Quantum.Optimize.peephole c in
      let d0 = Sim.Executor.run ~seed:9 ~shots:1500 c in
      let d1 = Sim.Executor.run ~seed:10 ~shots:1500 o in
      Sim.Counts.tvd d0 d1 < 0.12)

(* ---- QASM roundtrip ---- *)

let prop_qasm_roundtrip =
  QCheck.Test.make ~name:"qasm: parse (print c) = c" ~count:60 arb_circuit
    (fun spec ->
      let c = build_measured spec in
      let c' = Quantum.Qasm_parser.of_string (Quantum.Qasm.to_string c) in
      c'.Quantum.Circuit.num_qubits = c.Quantum.Circuit.num_qubits
      && Quantum.Circuit.gate_count c' = Quantum.Circuit.gate_count c
      && Array.for_all2
           (fun a b -> a.Quantum.Gate.kind = b.Quantum.Gate.kind)
           c'.Quantum.Circuit.gates c.Quantum.Circuit.gates)

(* ---- Budgeted planning properties ---- *)

let prop_budget_plan_usage_within =
  QCheck.Test.make ~name:"commute: budget plan respects budget" ~count:60
    arb_graph (fun spec ->
      let g = build_graph spec in
      let n = Galg.Graph.order g in
      List.for_all
        (fun budget ->
          match Caqr.Commute.plan_with_budget g ~budget with
          | None -> true
          | Some p -> Caqr.Commute.usage p <= budget)
        [ n; (n / 2) + 1; (n / 3) + 2 ])

let prop_budget_plan_chains_independent =
  QCheck.Test.make ~name:"commute: budget plan chains independent" ~count:60
    arb_graph (fun spec ->
      let g = build_graph spec in
      let n = Galg.Graph.order g in
      match Caqr.Commute.plan_with_budget g ~budget:(max 2 (n - 2)) with
      | None -> true
      | Some p ->
        List.for_all
          (fun head ->
            let members = Caqr.Commute.chain p head in
            List.for_all
              (fun a ->
                List.for_all
                  (fun b -> a = b || not (Galg.Graph.has_edge g a b))
                  members)
              members)
          (Caqr.Commute.wires p))

let prop_budget_plan_emit_complete =
  QCheck.Test.make ~name:"commute: budget plan emits every gate" ~count:60
    arb_graph (fun spec ->
      let g = build_graph spec in
      let n = Galg.Graph.order g in
      match Caqr.Commute.plan_with_budget g ~budget:(max 2 ((n / 2) + 1)) with
      | None -> true
      | Some p ->
        Quantum.Circuit.two_q_count (Caqr.Commute.emit p) = Galg.Graph.size g)

let prop_budget_floor_geq_coloring =
  QCheck.Test.make ~name:"commute: no plan below chromatic bound" ~count:40
    arb_graph (fun spec ->
      let g = build_graph spec in
      let chi = Caqr.Commute.min_qubits g in
      (* Coloring is a lower bound: a budget below it must be rejected
         whenever the graph has at least one edge. *)
      chi < 2 || Caqr.Commute.plan_with_budget g ~budget:(chi - 1) = None)

let () =
  Alcotest.run "properties"
    [
      ( "galg",
        List.map to_alcotest
          [
            prop_size_consistent;
            prop_degree_sum;
            prop_bfs_triangle_inequality;
            prop_coloring_proper;
            prop_coloring_bound;
            prop_blossom_valid;
            prop_blossom_geq_greedy;
            prop_priority_valid;
            prop_flat_kernel_filters;
            prop_kernels_match_references;
            prop_mask_kernel_frozen;
          ] );
      ( "quantum",
        List.map to_alcotest
          [
            prop_depth_bounds;
            prop_dag_edges_forward;
            prop_reachability_matches_dfs;
            prop_compact_preserves_gates;
            prop_builder_matches_of_kinds;
          ] );
      ( "sim",
        List.map to_alcotest
          [
            prop_norm_preserved;
            prop_probabilities_sum;
            prop_tvd_range;
            prop_shared_clbit_last_write;
          ] );
      ( "reuse",
        List.map to_alcotest
          [
            prop_predict_depth_exact;
            prop_apply_drops_usage;
            prop_apply_preserves_distribution;
            prop_sweep_usage_decreases;
            prop_shared_sweep_steps;
          ] );
      ( "commute",
        List.map to_alcotest
          [
            prop_commute_chains_independent;
            prop_commute_emit_complete;
            prop_commute_emit_reuse_complete;
            prop_budget_plan_usage_within;
            prop_budget_plan_chains_independent;
            prop_budget_plan_emit_complete;
            prop_budget_floor_geq_coloring;
            prop_commute_sweep_equivalent;
            prop_commute_rounds_geq_chain_load;
            prop_commute_emit_shape_exact;
            prop_commute_pruned_exact_matches_reference;
          ] );
      ( "optimize",
        List.map to_alcotest
          [
            prop_optimize_never_grows;
            prop_optimize_idempotent;
            prop_optimize_preserves_distribution;
            prop_qasm_roundtrip;
          ] );
    ]
