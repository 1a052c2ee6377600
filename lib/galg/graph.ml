module Iset = Set.Make (Int)

type t = { n : int; adj : Iset.t array; mutable m : int }

let create n =
  if n < 0 then invalid_arg "Graph.create: negative order";
  { n; adj = Array.make n Iset.empty; m = 0 }

let order g = g.n
let size g = g.m

let check g v =
  if v < 0 || v >= g.n then invalid_arg "Graph: vertex out of range"

let has_edge g u v =
  check g u;
  check g v;
  Iset.mem v g.adj.(u)

let add_edge g u v =
  check g u;
  check g v;
  if u <> v && not (Iset.mem v g.adj.(u)) then begin
    g.adj.(u) <- Iset.add v g.adj.(u);
    g.adj.(v) <- Iset.add u g.adj.(v);
    g.m <- g.m + 1
  end

let remove_edge g u v =
  check g u;
  check g v;
  if Iset.mem v g.adj.(u) then begin
    g.adj.(u) <- Iset.remove v g.adj.(u);
    g.adj.(v) <- Iset.remove u g.adj.(v);
    g.m <- g.m - 1
  end

let neighbors g v =
  check g v;
  Iset.elements g.adj.(v)

let degree g v =
  check g v;
  Iset.cardinal g.adj.(v)

let max_degree g =
  Array.fold_left (fun acc s -> max acc (Iset.cardinal s)) 0 g.adj

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    List.iter
      (fun v -> if u < v then acc := (u, v) :: !acc)
      (List.rev (Iset.elements g.adj.(u)))
  done;
  !acc

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let fold_vertices f g init =
  let acc = ref init in
  for v = 0 to g.n - 1 do
    acc := f v !acc
  done;
  !acc

let bfs_dist g src =
  check g src;
  let dist = Array.make g.n max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Iset.iter
      (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      g.adj.(u)
  done;
  dist

let all_pairs_dist g = Array.init g.n (bfs_dist g)

let is_connected g =
  if g.n = 0 then true
  else
    let dist = bfs_dist g 0 in
    Array.for_all (fun d -> d < max_int) dist

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>graph(n=%d, m=%d:" g.n g.m;
  List.iter (fun (u, v) -> Format.fprintf ppf "@ %d-%d" u v) (edges g);
  Format.fprintf ppf ")@]"
