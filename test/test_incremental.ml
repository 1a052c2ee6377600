(* The incremental analysis engine must be invisible from the outside:
   the cursor moved by [Reuse.link] has to agree with a fresh
   [Reuse.analyze] of the transformed circuit on every observable, and
   with the persistent engine it replaced ([Reuse_ref]) field by field,
   [Reuse.unlink] has to restore its parent exactly, and
   [Qs_caqr.sweep] has to reproduce the reference search
   [Fuzz.Qs_ref.sweep] exactly. *)

(* Per-property seeded state, as in test_properties.ml: seeding from the
   name keeps runs reproducible without correlating the properties. *)
let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xca9; Hashtbl.hash name |])
    t

(* Random shallow circuits (same shape as test_properties.ml), paired
   with a choice stream that picks which valid pair to apply at each
   step of a reuse sequence. *)
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

let spec_gen =
  QCheck.Gen.(pair circuit_gen (list_size (int_range 1 5) (int_bound 1000)))

let arb_spec =
  QCheck.make spec_gen ~print:(fun ((n, gs), ks) ->
      Printf.sprintf "n=%d gates=%d choices=[%s]" n (List.length gs)
        (String.concat ";" (List.map string_of_int ks)))

let build_measured (n, gs) =
  let b = Quantum.Circuit.Builder.create ~num_qubits:n ~num_clbits:n in
  List.iter
    (function
      | `H q -> Quantum.Circuit.Builder.h b q
      | `Cx (a, c) -> Quantum.Circuit.Builder.cx b a c
      | `Rz q -> Quantum.Circuit.Builder.rz b 0.3 q)
    gs;
  Quantum.Circuit.measure_all (Quantum.Circuit.Builder.build b)

(* Every observable the search engines read off an analysis. *)
let same_analysis inc fresh =
  let n = (Caqr.Reuse.circuit inc).Quantum.Circuit.num_qubits in
  let all_pairs =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            if src = dst then None else Some { Caqr.Reuse.src; dst })
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let valid = Caqr.Reuse.valid_pairs fresh in
  (* [valid] tests Condition 2 alone, which implies Condition 1 *)
  List.for_all (Caqr.Reuse.condition1 fresh) valid
  && Caqr.Reuse.circuit inc = Caqr.Reuse.circuit fresh
  && Caqr.Reuse.usage inc = Caqr.Reuse.usage fresh
  && Caqr.Reuse.valid_pairs inc = valid
  && List.for_all
       (fun p ->
         Caqr.Reuse.condition1 inc p = Caqr.Reuse.condition1 fresh p
         && Caqr.Reuse.condition2 inc p = Caqr.Reuse.condition2 fresh p)
       all_pairs
  && List.for_all
       (fun p ->
         Caqr.Reuse.predict_depth inc p = Caqr.Reuse.predict_depth fresh p
         && Caqr.Reuse.src_finish_depth inc p
            = Caqr.Reuse.src_finish_depth fresh p
         && Caqr.Reuse.dst_start_depth inc p
            = Caqr.Reuse.dst_start_depth fresh p)
       valid

let prop_link_matches_fresh =
  QCheck.Test.make ~name:"cursor: link = fresh analyze" ~count:80
    arb_spec (fun (cspec, choices) ->
      let a = Caqr.Reuse.analyze (build_measured cspec) in
      let rec go = function
        | [] -> true
        | k :: rest -> (
          match Caqr.Reuse.valid_pairs a with
          | [] -> true
          | pairs ->
            let p = List.nth pairs (k mod List.length pairs) in
            let fresh = Caqr.Reuse.analyze (Caqr.Reuse.apply (Caqr.Reuse.circuit a) p) in
            Caqr.Reuse.link a p;
            same_analysis a fresh && go rest)
      in
      go choices)

(* ---- derived circuits: barrier-free dynamic circuits ----

   Generated barrier-free circuits carry mid-circuit measures, shared
   clbits, conditional X and resets, so both splice kinds occur: a fresh
   measure on a fresh clbit, and a lone conditional X driven by a wire's
   sole-user final measure. Each chain runs until no valid pair remains,
   and every derived analysis must match a fresh one while its circuit,
   built from the root's tables, prints the same QASM-3 as iterated
   [Reuse.apply]. *)

let barrier_free = { Fuzz.Gen.default with Fuzz.Gen.w_barrier = 0; max_qubits = 8 }

(* One chain to the end: the cursor, left at the chain's last node, and
   the pairs it linked, oldest first. [pick] chooses among the valid
   pairs. *)
let chain_to_end pick c =
  let a = Caqr.Reuse.analyze c in
  let rec go acc =
    match Caqr.Reuse.valid_pairs a with
    | [] -> List.rev acc
    | pairs ->
      let p = List.nth pairs (pick (List.length pairs)) in
      Caqr.Reuse.link a p;
      go (p :: acc)
  in
  let pairs = go [] in
  (a, pairs)

let generated seed =
  let rng = Exec.Prng.make seed in
  (Fuzz.Gen.circuit barrier_free rng, Exec.Prng.int rng)

let qasm = Quantum.Qasm.to_string

(* [iterated c pairs]: the circuits of [Reuse.apply] along [pairs]. *)
let iterated c pairs =
  List.rev
    (snd
       (List.fold_left
          (fun (c, acc) p ->
            let c' = Caqr.Reuse.apply c p in
            (c', c' :: acc))
          (c, []) pairs))

let prop_generated_link_matches_fresh =
  QCheck.Test.make
    ~name:"cursor: link = fresh analyze, barrier-free fuzz"
    ~count:80 (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let c, pick = generated seed in
      let a = Caqr.Reuse.analyze c in
      let rec walk parent =
        match Caqr.Reuse.valid_pairs a with
        | [] -> true
        | pairs ->
          let p = List.nth pairs (pick (List.length pairs)) in
          let child = Caqr.Reuse.apply parent p in
          Caqr.Reuse.link a p;
          same_analysis a (Caqr.Reuse.analyze child)
          && qasm (Caqr.Reuse.circuit a) = qasm child
          && walk child
      in
      walk c)

(* The properties above read each node's circuit on the way down. A
   circuit is built from the root along the node's links, so reading a
   descendant's first, then every ancestor's back to the root (unlinking
   on the way up), gives the same circuits; each is built once, and read
   again from the cursor's cache while it stays put. [Reuse.replay]
   builds the same circuits from the pair paths alone. *)
let test_descendant_before_ancestor () =
  let fresh_links = ref 0 and reused_links = ref 0 in
  for seed = 1 to 60 do
    let c, pick = generated seed in
    let a, pairs = chain_to_end pick c in
    let expected = iterated c pairs in
    Obs.Metrics.reset ();
    List.iter
      (fun e ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d: circuit" seed)
          (qasm e) (qasm (Caqr.Reuse.circuit a));
        ignore (Caqr.Reuse.circuit a);
        Caqr.Reuse.unlink a)
      (List.rev expected);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: each circuit built once" seed)
      (List.length pairs)
      (Obs.Metrics.count "reuse.materialized");
    Alcotest.(check string)
      (Printf.sprintf "seed %d: back at the root" seed)
      (qasm c) (qasm (Caqr.Reuse.circuit a));
    List.iteri
      (fun i e ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d: replayed path %d" seed (i + 1))
          (qasm e)
          (qasm (Caqr.Reuse.replay a (List.filteri (fun j _ -> j <= i) pairs))))
      expected;
    ignore
      (List.fold_left
         (fun (prev : Quantum.Circuit.t) (e : Quantum.Circuit.t) ->
           if e.Quantum.Circuit.num_clbits > prev.Quantum.Circuit.num_clbits
           then incr fresh_links
           else incr reused_links;
           e)
         c expected)
  done;
  Alcotest.(check bool) "some splices measure onto a fresh clbit" true
    (!fresh_links > 0);
  Alcotest.(check bool) "some splices reuse a final measurement" true
    (!reused_links > 0)

(* ---- the cursor against the persistent engine it replaced ----

   A random walk of links and unlinks on a generated dynamic circuit
   (barriers and shared clbits included, so both the in-place path and
   the fresh-rebuild path run), with a stack of [Reuse_ref] analyses
   moved alongside: after every move each field of the cursor's node
   and both candidate orders equal the reference analysis's, and an
   unlink gives back exactly the fields read before the matching link. *)

let ranked_of a rank =
  (* an entry below the slice, as a DFS frame sees its parents', and
     room for one more, so the push also grows the stack *)
  let st = { Caqr.Reuse.items = [| -1; 0 |]; len = 1 } in
  let n = Caqr.Reuse.push_ranked a rank st in
  Array.sub st.Caqr.Reuse.items (st.Caqr.Reuse.len - n) n

let ref_fields (r : Reuse_ref.analysis) =
  [
    ("prev", r.Reuse_ref.prev);
    ("next", r.Reuse_ref.next);
    ("tail", r.Reuse_ref.tail);
    ("ef", r.Reuse_ref.ef);
    ("tl", r.Reuse_ref.tl);
    ("cp_depth", [| r.Reuse_ref.cp_depth |]);
    ("qreach", r.Reuse_ref.qreach);
    ("usage", [| r.Reuse_ref.usage |]);
  ]

let ref_pair ({ Caqr.Reuse.src; dst } : Caqr.Reuse.pair) =
  { Reuse_ref.src; dst }

let agrees a r =
  Caqr.Reuse.fields a = ref_fields r
  && ranked_of a Caqr.Reuse.By_depth = Reuse_ref.ranked r Reuse_ref.By_depth
  && ranked_of a Caqr.Reuse.By_chain = Reuse_ref.ranked r Reuse_ref.By_chain
  && List.map ref_pair (Caqr.Reuse.valid_pairs a) = Reuse_ref.valid_pairs r

let walk_agrees cfg seed =
  let rng = Exec.Prng.make seed in
  let c = Fuzz.Gen.circuit cfg rng in
  let a = Caqr.Reuse.analyze c in
  (* the reference analyses from the root to the cursor's node, and the
     cursor's fields before each link, deepest first *)
  let refs = ref [ Reuse_ref.analyze c ] and saved = ref [] in
  let ok = ref (agrees a (List.hd !refs)) in
  for _ = 1 to 24 do
    let pairs = Caqr.Reuse.valid_pairs a in
    let down = pairs <> [] && (!saved = [] || Exec.Prng.int rng 3 <> 0) in
    if down then begin
      let p = List.nth pairs (Exec.Prng.int rng (List.length pairs)) in
      saved := Caqr.Reuse.fields a :: !saved;
      Caqr.Reuse.link a p;
      refs := Reuse_ref.apply_incremental (List.hd !refs) (ref_pair p) :: !refs
    end
    else if !saved <> [] then begin
      Caqr.Reuse.unlink a;
      refs := List.tl !refs;
      ok := !ok && Caqr.Reuse.fields a = List.hd !saved;
      saved := List.tl !saved
    end;
    ok := !ok && agrees a (List.hd !refs)
  done;
  (* the circuit of the node the walk ends on *)
  !ok
  && qasm (Caqr.Reuse.circuit a) = qasm (Reuse_ref.circuit (List.hd !refs))

let prop_walk_matches_reference ~cfg ~label =
  QCheck.Test.make
    ~name:(Printf.sprintf "cursor: link/unlink walk = reference (%s)" label)
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (walk_agrees cfg)

(* A commit moves the cursor exactly as a link does, and links above it
   still unlink; only the commit itself cannot be undone. The walk
   commits, links and unlinks at random on one cursor and moves a second
   one by links alone. *)
let commit_walk_agrees cfg seed =
  let rng = Exec.Prng.make seed in
  let c = Fuzz.Gen.circuit cfg rng in
  let a = Caqr.Reuse.analyze c and b = Caqr.Reuse.analyze c in
  let above = ref 0 and committed = ref false in
  let ok = ref true in
  for _ = 1 to 24 do
    let pairs = Caqr.Reuse.valid_pairs a in
    let pick () = List.nth pairs (Exec.Prng.int rng (List.length pairs)) in
    (match Exec.Prng.int rng 3 with
     | 0 when pairs <> [] ->
       let p = pick () in
       Caqr.Reuse.commit a p;
       Caqr.Reuse.link b p;
       above := 0;
       committed := true
     | 1 when pairs <> [] ->
       let p = pick () in
       Caqr.Reuse.link a p;
       Caqr.Reuse.link b p;
       incr above
     | _ when !above > 0 ->
       Caqr.Reuse.unlink a;
       Caqr.Reuse.unlink b;
       decr above
     | _ -> ());
    ok := !ok && Caqr.Reuse.fields a = Caqr.Reuse.fields b
  done;
  !ok
  && qasm (Caqr.Reuse.circuit a) = qasm (Caqr.Reuse.circuit b)
  &&
  (for _ = 1 to !above do
     Caqr.Reuse.unlink a
   done;
   match Caqr.Reuse.unlink a with
   | () -> false
   | exception Invalid_argument m ->
     m
     = if !committed then "Reuse.unlink: the link is committed"
       else "Reuse.unlink: no link to undo")

let prop_commit_walk ~cfg ~label =
  QCheck.Test.make
    ~name:(Printf.sprintf "cursor: commit walk = link walk (%s)" label)
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (commit_walk_agrees cfg)

(* Unlinking at the root is refused. *)
let test_unlink_at_root () =
  let a = Caqr.Reuse.analyze (Fuzz.Gen.circuit barrier_free (Exec.Prng.make 7)) in
  Alcotest.check_raises "root" (Invalid_argument "Reuse.unlink: no link to undo")
    (fun () -> Caqr.Reuse.unlink a)

(* ---- emission: the stable-partition [Reuse.emit] against a Kahn
   emission on a sorted set ----

   The goldens cannot catch an emission-order change on their own: the
   reference sweep calls the same [Reuse.emit]. This reference shares
   nothing with it but the DAG: its ready queue is a functional [Set],
   and it copies every successor list, the dummy reset node's edges
   included, into a table of its own. *)

module Iset = Set.Make (Int)

let reference_emit circuit ({ Caqr.Reuse.src; dst } : Caqr.Reuse.pair) =
  let dag = Quantum.Dag.build circuit in
  let gates = circuit.Quantum.Circuit.gates in
  let n = Quantum.Dag.num_nodes dag in
  let dummy = n in
  (* the non-barrier gates on a wire, in execution order *)
  let on_wire q =
    List.filter
      (fun i ->
        let kind = gates.(i).Quantum.Gate.kind in
        (not (Quantum.Gate.is_barrier kind)) && List.mem q (Quantum.Gate.qubits kind))
      (List.init n Fun.id)
  in
  let s_gates = on_wire src and d_gates = on_wire dst in
  (* src's final measure drives the reset when that clbit has no other
     user; otherwise a fresh measure writes a fresh clbit. *)
  let existing_clbit =
    match List.rev s_gates with
    | last :: _ -> (
      match gates.(last).Quantum.Gate.kind with
      | Quantum.Gate.Measure (_, c) ->
        let users =
          Array.fold_left
            (fun k g ->
              if List.mem c (Quantum.Gate.clbits g.Quantum.Gate.kind) then k + 1
              else k)
            0 gates
        in
        if users = 1 then Some c else None
      | _ -> None)
    | [] -> None
  in
  let base = circuit.Quantum.Circuit.num_clbits in
  let num_clbits, reset_clbit =
    match existing_clbit with Some c -> (base, c) | None -> (base + 1, base)
  in
  let succs = Array.make (n + 1) [] and indeg = Array.make (n + 1) 0 in
  let add_edge u v =
    succs.(u) <- v :: succs.(u);
    indeg.(v) <- indeg.(v) + 1
  in
  for i = 0 to n - 1 do
    Quantum.Dag.iter_succs (add_edge i) dag i
  done;
  List.iter (fun g -> add_edge g dummy) s_gates;
  List.iter (add_edge dummy) d_gates;
  let ready = ref Iset.empty in
  for i = 0 to n do
    if indeg.(i) = 0 then ready := Iset.add i !ready
  done;
  let rename q = if q = dst then src else q in
  let rev_kinds = ref [] in
  let emit_kind k = rev_kinds := k :: !rev_kinds in
  while not (Iset.is_empty !ready) do
    let i = Iset.min_elt !ready in
    ready := Iset.remove i !ready;
    if i = dummy then begin
      if existing_clbit = None then
        emit_kind (Quantum.Gate.Measure (src, reset_clbit));
      emit_kind (Quantum.Gate.If_x (reset_clbit, src))
    end
    else emit_kind (Quantum.Gate.map_qubits rename gates.(i).Quantum.Gate.kind);
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then ready := Iset.add j !ready)
      succs.(i)
  done;
  Quantum.Circuit.of_kinds ~num_qubits:circuit.Quantum.Circuit.num_qubits
    ~num_clbits (List.rev !rev_kinds)

let kinds c = Array.map (fun g -> g.Quantum.Gate.kind) c.Quantum.Circuit.gates

(* Every valid pair of a generated dynamic circuit (mid-circuit
   measures, shared clbits, conditional X, barriers) emits identically:
   same gate kinds, same clbit count. *)
let prop_emit_matches_reference =
  QCheck.Test.make ~name:"reuse: emit = sorted-set reference emission"
    ~count:150 (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let c = Fuzz.Gen.circuit Fuzz.Gen.default (Exec.Prng.make seed) in
      let a = Caqr.Reuse.analyze c in
      List.for_all
        (fun p ->
          let em = Caqr.Reuse.emit a p in
          let circuit = reference_emit c p in
          kinds em = kinds circuit
          && em.Quantum.Circuit.num_clbits = circuit.Quantum.Circuit.num_clbits)
        (Caqr.Reuse.valid_pairs a))

(* ---- search regression: the incremental sweep must be identical to
   the reference sweep ---- *)

let sweeps_agree c = Caqr.Qs_caqr.sweep c = Fuzz.Qs_ref.sweep c

let prop_sweep_engines_agree =
  QCheck.Test.make ~name:"qs: engines produce identical sweeps" ~count:40
    (QCheck.make circuit_gen ~print:(fun (n, gs) ->
         Printf.sprintf "n=%d gates=%d" n (List.length gs)))
    (fun spec ->
      let c = build_measured spec in
      sweeps_agree c)

let test_suite_sweep_identical name () =
  let c = (Benchmarks.Suite.find name).Benchmarks.Suite.circuit in
  Alcotest.(check bool)
    (name ^ ": incremental sweep = reference sweep")
    true (sweeps_agree c)

let test_max_reuse_identical () =
  List.iter
    (fun name ->
      let c = (Benchmarks.Suite.find name).Benchmarks.Suite.circuit in
      let last = List.hd (List.rev (Fuzz.Qs_ref.sweep c)) in
      Alcotest.(check bool) name true
        (Caqr.Qs_caqr.max_reuse c = last.Caqr.Engine.circuit))
    [ "BV_10"; "XOR_5"; "RD-32" ]

(* ---- the identity where the node cap binds ----

   At the default 400-node budget generated circuits rarely reach the
   cap, so a wrong node credit for a replayed subtree would go unseen
   there. At budgets 3, 10 and 40 the cap ends most searches. The
   generator's default mix includes barriers (no replay); its
   barrier-free variant exercises the transposition table. *)

let with_budget budget = { Caqr.Qs_caqr.default_opts with Caqr.Qs_caqr.budget }

(* [cap_check budget c] is whether the engines agree on [c] at node
   budget [budget], with the sweep's replay count. Agreement is the same
   steps and — unless the width floor skipped a search the reference
   runs — the same DFS node count: a replay that ends [Cut] must credit
   exactly the nodes the explored subtree would have counted up to the
   cap. *)
let cap_check budget c =
  let opts = with_budget budget in
  let counted f =
    Obs.Metrics.reset ();
    let steps = f () in
    let count = Obs.Metrics.count in
    (steps, count "qs.search.nodes", count "qs.search.floor_skips",
     count "qs.search.replays")
  in
  let inc, inc_nodes, skips, replays =
    counted (fun () -> Caqr.Qs_caqr.sweep ~opts c)
  in
  let reference, ref_nodes, _, _ =
    counted (fun () -> Fuzz.Qs_ref.sweep ~opts c)
  in
  (inc = reference && (skips > 0 || inc_nodes = ref_nodes), replays)

let prop_sweep_agree_at_cap ~cfg ~label budget =
  QCheck.Test.make
    ~name:(Printf.sprintf "qs: engines agree at budget %d (%s)" budget label)
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      fst (cap_check budget (Fuzz.Gen.circuit cfg (Exec.Prng.make seed))))

let cap_props =
  List.concat_map
    (fun budget ->
      [
        prop_sweep_agree_at_cap ~cfg:Fuzz.Gen.default ~label:"with barriers"
          budget;
        prop_sweep_agree_at_cap ~cfg:barrier_free ~label:"barrier-free" budget;
      ])
    [ 3; 10; 40 ]

(* The properties above only bite if the cap-binding searches replay:
   over the barrier-free seeds, replays must fire at budgets 10 and 40.
   (At budget 3 a search rarely exhausts a subtree before the cap.) *)
let test_replays_fire_at_cap () =
  List.iter
    (fun budget ->
      let fired = ref 0 in
      for seed = 1 to 60 do
        let c = Fuzz.Gen.circuit barrier_free (Exec.Prng.make seed) in
        let agree, replays = cap_check budget c in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d budget %d agrees" seed budget)
          true agree;
        if replays > 0 then incr fired
      done;
      Alcotest.(check bool)
        (Printf.sprintf "replays fire at budget %d" budget)
        true (!fired > 0))
    [ 10; 40 ]

let test_table1_agree_at_budget_50 () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      Alcotest.(check bool)
        (e.Benchmarks.Suite.name ^ ": sweep = reference at budget 50")
        true
        (fst (cap_check 50 e.Benchmarks.Suite.circuit)))
    (Benchmarks.Suite.regular ())

(* A barrier breaks the "links fix the DAG" argument, so the table is
   off: one single-wire barrier on Multiply_13 (which changes no reach)
   turns hundreds of replays into none, and the sweep is still the
   reference's. *)
let test_barrier_disables_replay () =
  let c = (Benchmarks.Suite.find "Multiply_13").Benchmarks.Suite.circuit in
  let agree, replays = cap_check 400 c in
  Alcotest.(check bool) "barrier-free: sweep = reference" true agree;
  Alcotest.(check bool) "barrier-free: replays" true (replays > 0);
  let barred =
    Quantum.Circuit.of_kinds ~num_qubits:c.Quantum.Circuit.num_qubits
      ~num_clbits:c.Quantum.Circuit.num_clbits
      (Quantum.Gate.Barrier [ 0 ]
       :: Array.to_list
            (Array.map (fun g -> g.Quantum.Gate.kind) c.Quantum.Circuit.gates))
  in
  let agree, replays = cap_check 400 barred in
  Alcotest.(check bool) "with a barrier: sweep = reference" true agree;
  Alcotest.(check int) "with a barrier: no replay" 0 replays

(* Single searches ride the same DFS, stopped at its first find. At
   every target along the reference sweep, and one below its end,
   [search_anytime] must return the reference search's circuit and
   pairs, exact, or [None] where the reference finds none. *)
let search_check budget c =
  let opts = with_budget budget in
  let usage (s : Caqr.Engine.step) = s.Caqr.Engine.usage in
  let rows = Fuzz.Qs_ref.sweep ~opts c in
  let first = usage (List.hd rows) and last = usage (List.hd (List.rev rows)) in
  List.for_all
    (fun target ->
      let got =
        Option.map
          (fun (a : Caqr.Engine.artifact) ->
            (a.Caqr.Engine.circuit, a.Caqr.Engine.pairs,
             Caqr.Quality.is_exact a.Caqr.Engine.quality))
          (Caqr.Qs_caqr.search_anytime ~opts ~target c)
      in
      let want =
        Option.map
          (fun (circuit, pairs) -> (circuit, Some pairs, true))
          (Fuzz.Qs_ref.search ~opts ~target c)
      in
      got = want)
    (List.filter
       (fun t -> t >= 0)
       (List.init (first - last + 1) (fun i -> first - 1 - i)))

let prop_search_agree_at_cap ~cfg ~label budget =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "qs: single searches agree at budget %d (%s)" budget
         label)
    ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      search_check budget (Fuzz.Gen.circuit cfg (Exec.Prng.make seed)))

let search_props =
  List.concat_map
    (fun budget ->
      [
        prop_search_agree_at_cap ~cfg:Fuzz.Gen.default ~label:"with barriers"
          budget;
        prop_search_agree_at_cap ~cfg:barrier_free ~label:"barrier-free" budget;
      ])
    [ 3; 10; 40 ]

(* The descent's work, counted: the plain DFS's node count, the part of
   it credited at each find instead of being walked again, and the
   incremental analyses the DFS derives. Each repeats exactly; a descent
   that walked a prefix twice would derive more analyses. *)
let test_descent_counts () =
  List.iter
    (fun (name, nodes, resumed, analyses) ->
      let c = (Benchmarks.Suite.find name).Benchmarks.Suite.circuit in
      Obs.Metrics.reset ();
      ignore (Caqr.Qs_caqr.max_reuse_anytime c);
      let count = Obs.Metrics.count in
      Alcotest.(check int) (name ^ ": qs.search.nodes") nodes
        (count "qs.search.nodes");
      Alcotest.(check int) (name ^ ": qs.search.resumed_nodes") resumed
        (count "qs.search.resumed_nodes");
      Alcotest.(check int) (name ^ ": reuse.analyze.incremental") analyses
        (count "reuse.analyze.incremental"))
    [ ("Multiply_13", 823, 21, 312); ("CC_10", 226, 28, 80) ]

let () =
  Alcotest.run "incremental"
    [
      ( "analysis",
        [
          to_alcotest prop_link_matches_fresh;
          to_alcotest prop_generated_link_matches_fresh;
          Alcotest.test_case "descendant circuit before ancestor's" `Quick
            test_descendant_before_ancestor;
          to_alcotest prop_emit_matches_reference;
          to_alcotest
            (prop_walk_matches_reference ~cfg:Fuzz.Gen.default
               ~label:"with barriers");
          to_alcotest
            (prop_walk_matches_reference ~cfg:barrier_free ~label:"barrier-free");
          Alcotest.test_case "unlink at the root" `Quick test_unlink_at_root;
          to_alcotest
            (prop_commit_walk ~cfg:Fuzz.Gen.default ~label:"with barriers");
          to_alcotest (prop_commit_walk ~cfg:barrier_free ~label:"barrier-free");
        ] );
      ( "engines",
        [
          to_alcotest prop_sweep_engines_agree;
          Alcotest.test_case "max_reuse identical" `Quick
            test_max_reuse_identical;
          Alcotest.test_case "replays fire where the cap binds" `Quick
            test_replays_fire_at_cap;
          Alcotest.test_case "Table 1 at budget 50" `Quick
            test_table1_agree_at_budget_50;
          Alcotest.test_case "a barrier disables replay" `Quick
            test_barrier_disables_replay;
        ]
        @ List.map to_alcotest cap_props
        @ List.map
            (fun name ->
              Alcotest.test_case (name ^ " sweep") `Quick
                (test_suite_sweep_identical name))
            [ "RD-32"; "4mod5"; "XOR_5"; "BV_10"; "CC_10"; "System_9"; "Multiply_13" ]
        @ [ Alcotest.test_case "descent counts" `Quick test_descent_counts ]
        @ List.map to_alcotest search_props );
    ]
