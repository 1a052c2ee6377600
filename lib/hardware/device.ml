type t = {
  coupling : Galg.Graph.t;
  calibration : Calibration.t;
  dist : int array array;
  nbrs : int array array;
  nbr_error : float array array;
  nbr_duration : int array array;
  quality : float array;
}

(* The calibration-dependent tables: link data aligned with [nbrs], and
   the per-qubit placement score. *)
let with_calibration calibration nbrs =
  let link f =
    Array.mapi (fun u -> Array.map (fun v -> f (Calibration.link calibration u v))) nbrs
  in
  let nbr_error = link (fun l -> l.Calibration.cx_error) in
  let nbr_duration = link (fun l -> l.Calibration.cx_duration_dt) in
  let quality =
    Array.mapi
      (fun p errs ->
        let best_link = Array.fold_left (fun acc e -> Float.max acc (1. -. e)) 0. errs in
        let connectivity = float_of_int (Array.length errs) in
        let readout = (Calibration.qubit calibration p).Calibration.readout_error in
        (0.5 *. connectivity) +. (1. -. readout) +. best_link)
      nbr_error
  in
  (nbr_error, nbr_duration, quality)

(* The calibration-free tables of a coupling graph. *)
type grid = { graph : Galg.Graph.t; adj : int array array; hops : int array array }

let grid_of coupling =
  {
    graph = coupling;
    adj =
      Array.init (Galg.Graph.order coupling) (fun v ->
          Array.of_list (Galg.Graph.neighbors coupling v));
    hops = Galg.Graph.all_pairs_dist coupling;
  }

let of_grid grid calibration =
  let nbr_error, nbr_duration, quality = with_calibration calibration grid.adj in
  {
    coupling = grid.graph;
    calibration;
    dist = grid.hops;
    nbrs = grid.adj;
    nbr_error;
    nbr_duration;
    quality;
  }

let make coupling calibration = of_grid (grid_of coupling) calibration

let mumbai =
  make Topology.falcon_27 (Calibration.synthetic ~seed:27 Topology.falcon_27)

(* Process-wide memo tables, filled on first use: the heavy-hex grids by
   order and the devices by requested width. A value is built outside
   the lock and the first insert wins, so every caller of one key gets
   one physical value even when two domains race the first build. The
   O(n^2) distance table lives once per grid; a width adds only its
   calibration and the O(links) tables derived from it. Only widths up
   to [memo_max_width] are kept, so a caller that asks for arbitrary
   widths (a daemon compiling client programs) cannot grow the tables
   past the ones this ceiling allows. *)
let memo_lock = Mutex.create ()
let grids : (int, grid) Hashtbl.t = Hashtbl.create 8
let devices : (int, t) Hashtbl.t = Hashtbl.create 16

(* The 327-qubit (8x8) heavy-hex grid: the largest one the benchmark
   registry and the large corpus ask for ([cuccaro-256]). *)
let memo_max_width = 327

let memo tbl key build =
  let find () = Hashtbl.find_opt tbl key in
  match Mutex.protect memo_lock find with
  | Some v -> v
  | None ->
    let v = build () in
    Mutex.protect memo_lock (fun () ->
        match find () with
        | Some first -> first
        | None ->
          Hashtbl.add tbl key v;
          v)

let build_for n grid_of_graph =
  let g = Topology.heavy_hex_at_least n in
  let grid = grid_of_graph g in
  of_grid grid (Calibration.synthetic ~seed:(1000 + n) grid.graph)

let heavy_hex_for n =
  if n <= 27 then mumbai
  else if n > memo_max_width then build_for n grid_of
  else
    memo devices n (fun () ->
        build_for n (fun g -> memo grids (Galg.Graph.order g) (fun () -> grid_of g)))

let ideal g = make g (Calibration.ideal g)

let with_noise_scale factor t =
  let calibration = Calibration.scale ~factor t.calibration in
  let nbr_error, nbr_duration, quality = with_calibration calibration t.nbrs in
  { t with calibration; nbr_error; nbr_duration; quality }

let num_qubits t = Galg.Graph.order t.coupling
let adjacent t u v = Galg.Graph.has_edge t.coupling u v
let distance t u v = t.dist.(u).(v)
let neighbors t v = Galg.Graph.neighbors t.coupling v

(* Position of [v] in [u]'s neighbour table, or -1. A top-level loop, so
   a lookup allocates no closure: every physical duration calls it once
   per two-qubit gate. *)
let rec index_of (ns : int array) v i =
  if i = Array.length ns then -1
  else if ns.(i) = v then i
  else index_of ns v (i + 1)

let link_index t u v = index_of t.nbrs.(u) v 0

let cx_duration t u v =
  match link_index t u v with
  | -1 -> Quantum.Duration.(default.cx)
  | i -> t.nbr_duration.(u).(i)

let gate_duration t = function
  | Quantum.Gate.Cx (a, b) | Quantum.Gate.Cz (a, b) | Quantum.Gate.Rzz (_, a, b)
    ->
    cx_duration t a b
  | Quantum.Gate.Swap (a, b) -> 3 * cx_duration t a b
  | k -> Quantum.Duration.(of_kind default) k

let cx_error t u v =
  match link_index t u v with -1 -> 1. | i -> t.nbr_error.(u).(i)

let readout_error t q = (Calibration.qubit t.calibration q).Calibration.readout_error
let qubit_quality t p = t.quality.(p)
