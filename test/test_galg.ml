(* Unit tests for the graph-algorithms substrate. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---- Graph ---- *)

let test_create_empty () =
  let g = Galg.Graph.create 5 in
  check int "order" 5 (Galg.Graph.order g);
  check int "size" 0 (Galg.Graph.size g);
  check int "max degree" 0 (Galg.Graph.max_degree g)

let test_add_edge () =
  let g = Galg.Graph.create 4 in
  Galg.Graph.add_edge g 0 1;
  Galg.Graph.add_edge g 1 2;
  check bool "has 0-1" true (Galg.Graph.has_edge g 0 1);
  check bool "symmetric" true (Galg.Graph.has_edge g 1 0);
  check bool "no 0-2" false (Galg.Graph.has_edge g 0 2);
  check int "size" 2 (Galg.Graph.size g)

let test_add_edge_idempotent () =
  let g = Galg.Graph.create 3 in
  Galg.Graph.add_edge g 0 1;
  Galg.Graph.add_edge g 0 1;
  Galg.Graph.add_edge g 1 0;
  check int "size stays 1" 1 (Galg.Graph.size g)

let test_self_loop_ignored () =
  let g = Galg.Graph.create 3 in
  Galg.Graph.add_edge g 1 1;
  check int "no self loop" 0 (Galg.Graph.size g)

let test_out_of_range () =
  let g = Galg.Graph.create 3 in
  Alcotest.check_raises "invalid vertex" (Invalid_argument "Graph: vertex out of range")
    (fun () -> Galg.Graph.add_edge g 0 3)

let test_remove_edge () =
  let g = Galg.Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  Galg.Graph.remove_edge g 0 1;
  check bool "removed" false (Galg.Graph.has_edge g 0 1);
  check int "size" 1 (Galg.Graph.size g);
  Galg.Graph.remove_edge g 0 1;
  check int "remove again is noop" 1 (Galg.Graph.size g)

let test_neighbors_sorted () =
  let g = Galg.Graph.of_edges 5 [ (2, 4); (2, 0); (2, 3) ] in
  check (Alcotest.list int) "sorted" [ 0; 3; 4 ] (Galg.Graph.neighbors g 2);
  check int "degree" 3 (Galg.Graph.degree g 2)

let test_edges_canonical () =
  let g = Galg.Graph.of_edges 4 [ (3, 1); (0, 2); (2, 1) ] in
  check
    (Alcotest.list (Alcotest.pair int int))
    "canonical order"
    [ (0, 2); (1, 2); (1, 3) ]
    (Galg.Graph.edges g)

let test_bfs_line () =
  let g = Galg.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let d = Galg.Graph.bfs_dist g 0 in
  check (Alcotest.array int) "line distances" [| 0; 1; 2; 3 |] d

let test_bfs_unreachable () =
  let g = Galg.Graph.of_edges 3 [ (0, 1) ] in
  let d = Galg.Graph.bfs_dist g 0 in
  check int "unreachable" max_int d.(2)

let test_all_pairs () =
  let g = Galg.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let d = Galg.Graph.all_pairs_dist g in
  check int "ring opposite" 2 d.(0).(2);
  check int "self" 0 d.(1).(1);
  check int "adjacent" 1 d.(3).(0)

let test_connectivity () =
  check bool "connected ring" true
    (Galg.Graph.is_connected (Galg.Graph.of_edges 3 [ (0, 1); (1, 2) ]));
  check bool "disconnected" false
    (Galg.Graph.is_connected (Galg.Graph.of_edges 3 [ (0, 1) ]));
  check bool "empty graph connected" true
    (Galg.Graph.is_connected (Galg.Graph.create 0))

(* ---- Coloring ---- *)

let test_color_triangle () =
  let g = Galg.Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let r = Galg.Coloring.best g in
  check int "triangle needs 3" 3 r.Galg.Coloring.count;
  check bool "proper" true (Galg.Coloring.is_proper g r)

let test_color_bipartite () =
  let g = Galg.Graph.of_edges 6 [ (0, 3); (0, 4); (1, 3); (1, 5); (2, 4); (2, 5) ] in
  let r = Galg.Coloring.dsatur g in
  check int "bipartite 2" 2 r.Galg.Coloring.count;
  check bool "proper" true (Galg.Coloring.is_proper g r)

let test_color_edgeless () =
  let g = Galg.Graph.create 4 in
  let r = Galg.Coloring.best g in
  check int "one color" 1 r.Galg.Coloring.count

let test_color_star () =
  (* BV interaction graph: star is 2-colorable -> 2 qubits suffice. *)
  let g = Galg.Graph.of_edges 8 (List.init 7 (fun i -> (7, i))) in
  check int "star 2-colorable" 2 (Galg.Coloring.best g).Galg.Coloring.count

let test_color_classes () =
  let g = Galg.Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let r = Galg.Coloring.dsatur g in
  let classes = Galg.Coloring.color_classes r in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 classes in
  check int "classes partition vertices" 4 total

let test_greedy_order_respected () =
  let g = Galg.Graph.of_edges 3 [ (0, 1) ] in
  let r = Galg.Coloring.greedy ~order:[ 1; 0; 2 ] g in
  check bool "proper" true (Galg.Coloring.is_proper g r);
  check int "2 colors" 2 r.Galg.Coloring.count

(* ---- Matching ---- *)

let test_blossom_path () =
  let g = Galg.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let m = Galg.Matching.blossom g in
  check bool "valid" true (Galg.Matching.is_valid g m);
  check int "perfect on P4" 2 (Galg.Matching.cardinality m)

let test_blossom_odd_cycle () =
  (* C5 needs blossom handling; max matching = 2. *)
  let g = Galg.Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let m = Galg.Matching.blossom g in
  check bool "valid" true (Galg.Matching.is_valid g m);
  check int "C5 matching" 2 (Galg.Matching.cardinality m)

let test_blossom_petersen_like () =
  (* Two triangles joined by a bridge: matching of size 3 exists. *)
  let g =
    Galg.Graph.of_edges 6 [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5); (2, 3) ]
  in
  let m = Galg.Matching.blossom g in
  check int "size 3" 3 (Galg.Matching.cardinality m)

(* The flat kernel on a whole graph: every vertex eligible, [prio] the
   priority vertices. *)
let kernel f ~prio g =
  let a = Galg.Matching.adj_of_graph g in
  let elig = Array.make (Galg.Graph.order g) true in
  Array.copy (f (Galg.Matching.work a) a ~elig ~prio)

let no_prio g = Array.make (Galg.Graph.order g) false

let test_blossom_beats_or_equals_greedy () =
  (* On P4 the middle edge has the largest degree sum, so greedy takes it
     first and gets 1; blossom gets 2. *)
  let g = Galg.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let greedy = kernel Galg.Matching.greedy_into ~prio:(no_prio g) g in
  let blossom = Galg.Matching.blossom g in
  check int "greedy trapped" 1 (Galg.Matching.cardinality greedy);
  check int "blossom optimal" 2 (Galg.Matching.cardinality blossom)

let test_greedy_maximal () =
  let g = Galg.Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let m = kernel Galg.Matching.greedy_into ~prio:(no_prio g) g in
  check bool "valid" true (Galg.Matching.is_valid g m);
  check bool "maximal" true (Galg.Matching.is_maximal g m)

let test_priority_matching_keeps_priority () =
  (* Vertex 0 is a priority vertex, so edge (0,1) is the one priority
     edge. It must be matched even when a larger plain matching exists
     through vertex 1. *)
  let g = Galg.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let m =
    kernel Galg.Matching.priority_into ~prio:[| true; false; false; false |] g
  in
  check int "0 matched to 1" 1 m.(0);
  check int "2 matched to 3" 3 m.(2)

let test_matching_empty_graph () =
  let g = Galg.Graph.create 3 in
  let m = Galg.Matching.blossom g in
  check int "no edges, no matches" 0 (Galg.Matching.cardinality m)

(* ---- Generators ---- *)

let test_random_edge_budget () =
  let g = Galg.Gen.random ~seed:11 20 ~density:0.3 in
  check int "edge budget" (Galg.Gen.edge_budget 20 ~density:0.3) (Galg.Graph.size g)

let test_random_deterministic () =
  let g1 = Galg.Gen.random ~seed:5 16 ~density:0.3 in
  let g2 = Galg.Gen.random ~seed:5 16 ~density:0.3 in
  check bool "same edges" true (Galg.Graph.edges g1 = Galg.Graph.edges g2)

let test_power_law_edge_budget () =
  let g = Galg.Gen.power_law ~seed:3 32 ~density:0.3 in
  check int "edge budget" (Galg.Gen.edge_budget 32 ~density:0.3) (Galg.Graph.size g)

let test_power_law_heavy_tail () =
  (* Power-law graphs should have a larger max degree than uniform random
     graphs of the same size/density (hub structure, paper §4.2.2). *)
  let pl = Galg.Gen.power_law ~seed:9 64 ~density:0.3 in
  let rnd = Galg.Gen.random ~seed:9 64 ~density:0.3 in
  check bool "hubbier" true (Galg.Graph.max_degree pl > Galg.Graph.max_degree rnd)

let test_degree_histogram () =
  let g = Galg.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let h = Galg.Gen.degree_histogram g in
  check int "two deg-1" 2 h.(1);
  check int "two deg-2" 2 h.(2)

let () =
  Alcotest.run "galg"
    [
      ( "graph",
        [
          Alcotest.test_case "create empty" `Quick test_create_empty;
          Alcotest.test_case "add edge" `Quick test_add_edge;
          Alcotest.test_case "idempotent add" `Quick test_add_edge_idempotent;
          Alcotest.test_case "self loop ignored" `Quick test_self_loop_ignored;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "remove edge" `Quick test_remove_edge;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "edges canonical" `Quick test_edges_canonical;
          Alcotest.test_case "bfs line" `Quick test_bfs_line;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "all pairs" `Quick test_all_pairs;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "triangle" `Quick test_color_triangle;
          Alcotest.test_case "bipartite" `Quick test_color_bipartite;
          Alcotest.test_case "edgeless" `Quick test_color_edgeless;
          Alcotest.test_case "star" `Quick test_color_star;
          Alcotest.test_case "classes partition" `Quick test_color_classes;
          Alcotest.test_case "greedy order" `Quick test_greedy_order_respected;
        ] );
      ( "matching",
        [
          Alcotest.test_case "path" `Quick test_blossom_path;
          Alcotest.test_case "odd cycle" `Quick test_blossom_odd_cycle;
          Alcotest.test_case "triangles + bridge" `Quick test_blossom_petersen_like;
          Alcotest.test_case "blossom vs greedy" `Quick test_blossom_beats_or_equals_greedy;
          Alcotest.test_case "greedy maximal" `Quick test_greedy_maximal;
          Alcotest.test_case "priority kept" `Quick test_priority_matching_keeps_priority;
          Alcotest.test_case "empty graph" `Quick test_matching_empty_graph;
        ] );
      ( "generators",
        [
          Alcotest.test_case "random edge budget" `Quick test_random_edge_budget;
          Alcotest.test_case "random deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "power-law edge budget" `Quick test_power_law_edge_budget;
          Alcotest.test_case "power-law heavy tail" `Quick test_power_law_heavy_tail;
          Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
        ] );
    ]
