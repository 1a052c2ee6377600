type t = int array

type adj = { start : int array; len : int array; nbr : int array }

let adj_of_graph g =
  let n = Graph.order g in
  let start = Array.make n 0 and len = Array.make n 0 in
  let total = ref 0 in
  for v = 0 to n - 1 do
    start.(v) <- !total;
    len.(v) <- Graph.degree g v;
    total := !total + len.(v)
  done;
  let nbr = Array.make !total 0 in
  for v = 0 to n - 1 do
    List.iteri (fun i w -> nbr.(start.(v) + i) <- w) (Graph.neighbors g v)
  done;
  { start; len; nbr }

(* Scratch for one adjacency layout, reused across calls. The two phase
   subgraphs share the input's [start] and each keep their own lists.
   The blossom search state is stamped rather than refilled: [p] and
   [base] hold for vertex [v] only while [tree.(v)] is the current
   search's stamp (otherwise [p] is -1 and [base] is [v]), [used],
   [seen], [blossom] and [masked] hold when equal to the stamp of their
   search, LCA walk, contraction or phase. Stamps come from one clock
   that only grows, so no stamp survives into a later call. *)
type work = {
  n : int;
  mate : int array;
  p : int array;
  base : int array;
  tree : int array;
  used : int array;
  seen : int array;
  blossom : int array;
  masked : int array;
  queue : int array;
  mutable qtail : int;
  mutable clock : int;
  mutable search : int;
  len1 : int array;  (* phase 1: eligible priority edges *)
  nbr1 : int array;
  len2 : int array;  (* phase 2: the other eligible edges *)
  nbr2 : int array;
  (* [greedy_into]'s eligible edges (endpoints, bucket) in
     lexicographic order, their ranked order and the bucket counts. *)
  eu : int array;
  ev : int array;
  ek : int array;
  ord : int array;
  mutable count : int array;
}

let work (a : adj) =
  let n = Array.length a.start and m = Array.length a.nbr in
  {
    n;
    mate = Array.make n (-1);
    p = Array.make n (-1);
    base = Array.make n 0;
    tree = Array.make n 0;
    used = Array.make n 0;
    seen = Array.make n 0;
    blossom = Array.make n 0;
    masked = Array.make n 0;
    queue = Array.make (max 1 n) 0;
    qtail = 0;
    clock = 0;
    search = 0;
    len1 = Array.make n 0;
    nbr1 = Array.make m 0;
    len2 = Array.make n 0;
    nbr2 = Array.make m 0;
    eu = Array.make m 0;
    ev = Array.make m 0;
    ek = Array.make m 0;
    ord = Array.make m 0;
    count = [||];
  }

let[@inline] tick w =
  w.clock <- w.clock + 1;
  w.clock

(* The search reads these per scanned edge; inlining them measured
   about 4% of a QAOA25-0.3 sweep. *)
let[@inline] par w v = if w.tree.(v) = w.search then w.p.(v) else -1
let[@inline] base_of w v = if w.tree.(v) = w.search then w.base.(v) else v

let[@inline] touch w v =
  if w.tree.(v) <> w.search then begin
    w.tree.(v) <- w.search;
    w.p.(v) <- -1;
    w.base.(v) <- v
  end

let[@inline] set_par w v x =
  touch w v;
  w.p.(v) <- x

let[@inline] push w v =
  w.used.(v) <- w.search;
  w.queue.(w.qtail) <- v;
  w.qtail <- w.qtail + 1

(* Lowest common ancestor of [a] and [b] in the alternating tree: mark
   the bases above [a], then walk up from [b] to the first marked one. *)
let rec mark_up w s v =
  let b = base_of w v in
  w.seen.(b) <- s;
  let m = w.mate.(b) in
  if m >= 0 && par w m >= 0 then mark_up w s (par w m)

let rec first_seen w s v =
  let b = base_of w v in
  if w.seen.(b) = s then b else first_seen w s (par w w.mate.(b))

let lca w a b =
  let s = tick w in
  mark_up w s a;
  first_seen w s b

let mark_path w e v b child =
  let v = ref v and child = ref child in
  while base_of w !v <> b do
    w.blossom.(base_of w !v) <- e;
    w.blossom.(base_of w w.mate.(!v)) <- e;
    set_par w !v !child;
    child := w.mate.(!v);
    v := par w w.mate.(!v)
  done

(* Contract the odd cycle closed by the edge (v, to_): every vertex
   whose base lies on it takes the cycle's base, and enters the queue
   if it has not yet. Vertices are scanned in ascending order, which
   fixes the queue order. *)
let contract w v to_ =
  let curbase = lca w v to_ in
  let e = tick w in
  mark_path w e v curbase to_;
  mark_path w e to_ curbase v;
  for i = 0 to w.n - 1 do
    if w.blossom.(base_of w i) = e then begin
      touch w i;
      w.base.(i) <- curbase;
      if w.used.(i) <> w.search then push w i
    end
  done

(* One augmenting-path search from [root] over the lists
   [nbr.(start.(v)) .. nbr.(start.(v) + len.(v) - 1)], skipping
   neighbours stamped [mask] in [w.masked]: the classic BFS with
   blossom contraction tracked through [base]. Returns the free vertex
   the path ends at, or -1. A vertex is marked [used] when pushed and a
   used vertex is never reached again as the free mate of an unvisited
   one, so each search pushes a vertex at most once and [n] queue slots
   suffice. *)
let find_path w (start : int array) len nbr mask root =
  (* Cooperative budget: one checkpoint per augmenting-path search, so
     an armed deadline bounds the O(V^3) worst case instead of hanging. *)
  Guard.Budget.checkpoint ~stage:"galg.matching" ~site:"match.augment";
  Guard.Inject.hit "match.augment";
  w.search <- tick w;
  w.qtail <- 0;
  push w root;
  let mate = w.mate in
  let qhead = ref 0 and result = ref (-1) in
  while !result < 0 && !qhead < w.qtail do
    let v = w.queue.(!qhead) in
    incr qhead;
    let k = ref start.(v) in
    let stop = start.(v) + len.(v) in
    while !result < 0 && !k < stop do
      let to_ = nbr.(!k) in
      incr k;
      if w.masked.(to_) <> mask && base_of w v <> base_of w to_ && mate.(v) <> to_
      then
        if to_ = root || (mate.(to_) >= 0 && par w mate.(to_) >= 0) then
          contract w v to_
        else if par w to_ < 0 then begin
          set_par w to_ v;
          if mate.(to_) < 0 then result := to_ else push w mate.(to_)
        end
    done
  done;
  !result

(* Has [v] a neighbour not stamped [mask]? *)
let has_edge w (start : int array) len nbr mask v =
  let k = ref start.(v) and stop = start.(v) + len.(v) in
  while !k < stop && w.masked.(nbr.(!k)) = mask do
    incr k
  done;
  !k < stop

(* Edmonds' blossom algorithm for maximum-cardinality matching, the
   classic O(V^3) formulation, extending [w.mate] on the given lists
   with the vertices stamped [mask] left out. A vertex with no edge left
   has no augmenting path, so its search is skipped. *)
let augment_all w start len nbr mask =
  let mate = w.mate in
  for v = 0 to w.n - 1 do
    if mate.(v) < 0 && has_edge w start len nbr mask v then begin
      (* Flip matched/unmatched along the augmenting path ending at [u]. *)
      let u = ref (find_path w start len nbr mask v) in
      while !u >= 0 do
        let pv = par w !u in
        let ppv = mate.(pv) in
        mate.(!u) <- pv;
        mate.(pv) <- !u;
        u := ppv
      done
    end
  done

let blossom_into w (g : adj) =
  Array.fill w.mate 0 w.n (-1);
  augment_all w g.start g.len g.nbr (tick w)

let priority_into w (a : adj) ~elig ~prio =
  (* One pass splits the eligible edges into the priority subgraph and
     the rest, each list keeping the input's ascending order. *)
  let { nbr1; len1; nbr2; len2; _ } = w in
  for v = 0 to w.n - 1 do
    let s = a.start.(v) and l1 = ref 0 and l2 = ref 0 in
    if elig.(v) then begin
      let pv = prio.(v) in
      for k = s to s + a.len.(v) - 1 do
        let u = a.nbr.(k) in
        if elig.(u) then
          if pv || prio.(u) then begin
            nbr1.(s + !l1) <- u;
            incr l1
          end
          else begin
            nbr2.(s + !l2) <- u;
            incr l2
          end
      done
    end;
    len1.(v) <- !l1;
    len2.(v) <- !l2
  done;
  Array.fill w.mate 0 w.n (-1);
  augment_all w a.start len1 nbr1 (tick w);
  (* Phase 2 matches the other edges between the vertices phase 1 left
     free: the matched ones are masked out and keep their mates. *)
  let mask = tick w in
  for v = 0 to w.n - 1 do
    if w.mate.(v) >= 0 then w.masked.(v) <- mask
  done;
  augment_all w a.start len2 nbr2 mask;
  w.mate

let greedy_into w (a : adj) ~elig ~prio =
  (* A key is the sum of the endpoints' list lengths, at most twice the
     longest list, offset for a priority edge. The scheduler used to
     rank by the float [10000 + sum] for a priority edge and [sum] for
     another; an offset of [min 10000 (2 * longest + 1)] keeps exactly
     that order in fewer buckets. *)
  let longest = ref 0 in
  for v = 0 to w.n - 1 do
    if a.len.(v) > !longest then longest := a.len.(v)
  done;
  let off = min 10000 ((2 * !longest) + 1) in
  let buckets = off + (2 * !longest) + 1 in
  if Array.length w.count < buckets then w.count <- Array.make buckets 0
  else Array.fill w.count 0 buckets 0;
  let count = w.count and ek = w.ek in
  (* Eligible edges [u < v] in lexicographic order. *)
  let m = ref 0 in
  for u = 0 to w.n - 1 do
    if elig.(u) then
      for k = a.start.(u) to a.start.(u) + a.len.(u) - 1 do
        let v = a.nbr.(k) in
        if u < v && elig.(v) then begin
          let key =
            a.len.(u) + a.len.(v) + if prio.(u) || prio.(v) then off else 0
          in
          w.eu.(!m) <- u;
          w.ev.(!m) <- v;
          ek.(!m) <- key;
          count.(key) <- count.(key) + 1;
          incr m
        end
      done
  done;
  let m = !m in
  (* A stable bucket sort, heaviest bucket first: ties keep
     lexicographic order. *)
  let pos = ref 0 in
  for b = buckets - 1 downto 0 do
    let c = count.(b) in
    count.(b) <- !pos;
    pos := !pos + c
  done;
  for i = 0 to m - 1 do
    let b = ek.(i) in
    w.ord.(count.(b)) <- i;
    count.(b) <- count.(b) + 1
  done;
  let mate = w.mate in
  Array.fill mate 0 w.n (-1);
  for i = 0 to m - 1 do
    let e = w.ord.(i) in
    let u = w.eu.(e) and v = w.ev.(e) in
    if mate.(u) < 0 && mate.(v) < 0 then begin
      mate.(u) <- v;
      mate.(v) <- u
    end
  done;
  mate

let blossom g =
  let a = adj_of_graph g in
  let w = work a in
  blossom_into w a;
  Array.copy w.mate

let edges mate =
  let acc = ref [] in
  for v = Array.length mate - 1 downto 0 do
    let w = mate.(v) in
    if w > v then acc := (v, w) :: !acc
  done;
  !acc

let cardinality mate = List.length (edges mate)

let is_valid g mate =
  let n = Graph.order g in
  Array.length mate = n
  && begin
       let ok = ref true in
       Array.iteri
         (fun v w ->
           if w >= 0 then
             if w >= n || mate.(w) <> v || not (Graph.has_edge g v w) then
               ok := false)
         mate;
       !ok
     end

let is_maximal g mate =
  List.for_all
    (fun (u, v) -> mate.(u) >= 0 || mate.(v) >= 0)
    (Graph.edges g)
