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

(* Scratch for one vertex count, reused across calls: the blossom
   search state, the phase subgraph [sub] (a filtered copy of the input
   adjacency) and the two phase results. *)
type work = {
  n : int;
  mate : int array;
  p : int array;
  base : int array;
  used : bool array;
  in_blossom : bool array;
  seen : bool array;
  queue : int array;
  sub : adj;
  first : int array;  (* phase-1 matching of [priority_into] *)
  result : int array;
}

let work (a : adj) =
  let n = Array.length a.start in
  {
    n;
    mate = Array.make n (-1);
    p = Array.make n (-1);
    base = Array.make n 0;
    used = Array.make n false;
    in_blossom = Array.make n false;
    seen = Array.make n false;
    queue = Array.make (max 1 n) 0;
    sub =
      {
        start = Array.make n 0;
        len = Array.make n 0;
        nbr = Array.make (Array.length a.nbr) 0;
      };
    first = Array.make n (-1);
    result = Array.make n (-1);
  }

(* [filter_into dst a keep] copies the edges [(u, v)], [u < v], of [a]
   that satisfy [keep u v] into [dst], neighbours still ascending. *)
let filter_into (dst : adj) (a : adj) keep =
  let pos = ref 0 in
  for v = 0 to Array.length a.start - 1 do
    dst.start.(v) <- !pos;
    for k = a.start.(v) to a.start.(v) + a.len.(v) - 1 do
      let w = a.nbr.(k) in
      if (if v < w then keep v w else keep w v) then begin
        dst.nbr.(!pos) <- w;
        incr pos
      end
    done;
    dst.len.(v) <- !pos - dst.start.(v)
  done

(* Edmonds' blossom algorithm for maximum-cardinality matching, the classic
   O(V^3) formulation: repeated BFS for augmenting paths with blossom
   contraction tracked through a [base] array. Writes [w.mate]. *)
let blossom_into w (g : adj) =
  let n = w.n in
  let { mate; p; base; used; in_blossom; seen; _ } = w in
  (* Cooperative budget: one tick per augmenting-path search, so an
     armed deadline bounds the O(V^3) worst case instead of hanging. *)
  let tick =
    Guard.Budget.ticker ~stage:"galg.matching" ~site:"match.augment" ()
  in
  Array.fill mate 0 n (-1);
  (* The classic array-queue formulation: a vertex is marked [used] when
     pushed and a used vertex is never reached again as the free mate of
     an unvisited one, so each search pushes a vertex at most once and
     [n] slots suffice. *)
  let queue = w.queue in
  let qhead = ref 0 and qtail = ref 0 in
  let push v =
    queue.(!qtail) <- v;
    incr qtail
  in

  let lca a b =
    Array.fill seen 0 n false;
    let rec mark_up v =
      let b = base.(v) in
      seen.(b) <- true;
      if mate.(b) >= 0 && p.(mate.(b)) >= 0 then mark_up p.(mate.(b))
    in
    mark_up a;
    let rec find v =
      let b = base.(v) in
      if seen.(b) then b
      else find p.(mate.(b))
    in
    find b
  in

  let mark_path v b child =
    let v = ref v and child = ref child in
    while base.(!v) <> b do
      in_blossom.(base.(!v)) <- true;
      in_blossom.(base.(mate.(!v))) <- true;
      p.(!v) <- !child;
      child := mate.(!v);
      v := p.(mate.(!v))
    done
  in

  let find_path root =
    tick ();
    Guard.Inject.hit "match.augment";
    Array.fill used 0 n false;
    Array.fill p 0 n (-1);
    for i = 0 to n - 1 do
      base.(i) <- i
    done;
    used.(root) <- true;
    qhead := 0;
    qtail := 0;
    push root;
    let result = ref (-1) in
    while !result < 0 && !qhead < !qtail do
      let v = queue.(!qhead) in
      incr qhead;
      let k = ref g.start.(v) in
      let stop = g.start.(v) + g.len.(v) in
      while !result < 0 && !k < stop do
        let to_ = g.nbr.(!k) in
        incr k;
        if base.(v) <> base.(to_) && mate.(v) <> to_ then
          if to_ = root || (mate.(to_) >= 0 && p.(mate.(to_)) >= 0) then begin
            (* Odd cycle: contract the blossom. *)
            let curbase = lca v to_ in
            Array.fill in_blossom 0 n false;
            mark_path v curbase to_;
            mark_path to_ curbase v;
            for i = 0 to n - 1 do
              if in_blossom.(base.(i)) then begin
                base.(i) <- curbase;
                if not used.(i) then begin
                  used.(i) <- true;
                  push i
                end
              end
            done
          end
          else if p.(to_) < 0 then begin
            p.(to_) <- v;
            if mate.(to_) < 0 then result := to_
            else begin
              used.(mate.(to_)) <- true;
              push mate.(to_)
            end
          end
      done
    done;
    !result
  in

  for v = 0 to n - 1 do
    (* A vertex without edges has no augmenting path; skipping its
       search leaves every other search's state (reset per root)
       untouched. *)
    if mate.(v) < 0 && g.len.(v) > 0 then begin
      let u = find_path v in
      (* Flip matched/unmatched along the augmenting path ending at [u]. *)
      let u = ref u in
      while !u >= 0 do
        let pv = p.(!u) in
        let ppv = mate.(pv) in
        mate.(!u) <- pv;
        mate.(pv) <- !u;
        u := ppv
      done
    end
  done

let priority_into w a ~keep ~priority =
  filter_into w.sub a (fun u v -> keep u v && priority u v);
  blossom_into w w.sub;
  let first = w.first in
  Array.blit w.mate 0 first 0 w.n;
  (* Restrict the non-priority edges to vertices still free after phase 1,
     then match those at maximum cardinality too. *)
  filter_into w.sub a (fun u v ->
      keep u v && (not (priority u v)) && first.(u) < 0 && first.(v) < 0);
  blossom_into w w.sub;
  for v = 0 to w.n - 1 do
    w.result.(v) <- (if first.(v) >= 0 then first.(v) else w.mate.(v))
  done;
  w.result

let greedy_into w (a : adj) ~keep ~weight =
  (* Kept edges [u < v] in lexicographic order, then a stable sort by
     decreasing weight: ties keep lexicographic order. *)
  let es = ref [] in
  for u = w.n - 1 downto 0 do
    for k = a.start.(u) + a.len.(u) - 1 downto a.start.(u) do
      let v = a.nbr.(k) in
      if u < v && keep u v then es := (weight u v, u, v) :: !es
    done
  done;
  let es =
    List.stable_sort (fun (w1, _, _) (w2, _, _) -> Float.compare w2 w1) !es
  in
  let mate = w.result in
  Array.fill mate 0 w.n (-1);
  List.iter
    (fun (_, u, v) ->
      if mate.(u) < 0 && mate.(v) < 0 then begin
        mate.(u) <- v;
        mate.(v) <- u
      end)
    es;
  mate

let all _ _ = true

let blossom g =
  let a = adj_of_graph g in
  let w = work a in
  blossom_into w a;
  Array.copy w.mate

let greedy ~weight g =
  let a = adj_of_graph g in
  Array.copy (greedy_into (work a) a ~keep:all ~weight)

let priority_matching ~priority g =
  let a = adj_of_graph g in
  Array.copy (priority_into (work a) a ~keep:all ~priority)

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
