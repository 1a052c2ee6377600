(* Frozen reference for the flat matching kernel: the closure-driven
   [blossom_into], [priority_into] and [greedy_into] that
   [Galg.Matching] ran before its kernel took eligibility and priority
   as vertex masks, copied verbatim, plus the graph adapters
   [blossom], [greedy ~weight] and [priority_matching] over them. The
   library kernel and [Commute_ref] are checked against this copy, so
   a kernel that diverges cannot hide behind a reference that shares
   its code. *)

type adj = Galg.Matching.adj = { start : int array; len : int array; nbr : int array }

let adj_of_graph = Galg.Matching.adj_of_graph

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
  cls : int array;  (* [priority_into]'s class of each adjacency entry *)
  (* [greedy_into]'s kept edges (endpoints, weight) and the two index
     buffers of its merge sort. *)
  eu : int array;
  ev : int array;
  ew : float array;
  ord : int array;
  tmp : int array;
}

let work (a : adj) =
  let n = Array.length a.start and m = Array.length a.nbr in
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
    cls = Array.make m 0;
    eu = Array.make m 0;
    ev = Array.make m 0;
    ew = Array.make m 0.;
    ord = Array.make m 0;
    tmp = Array.make m 0;
  }

(* [select_into w a c ~free] copies the entries of [a] of class [c] (in
   [w.cls]) into [w.sub], neighbours still ascending; with [free], only
   those between vertices phase 1 left unmatched. *)
let select_into w (a : adj) c ~free =
  let sub = w.sub and pos = ref 0 in
  for v = 0 to w.n - 1 do
    sub.start.(v) <- !pos;
    for k = a.start.(v) to a.start.(v) + a.len.(v) - 1 do
      let u = a.nbr.(k) in
      if w.cls.(k) = c && ((not free) || (w.first.(v) < 0 && w.first.(u) < 0))
      then begin
        sub.nbr.(!pos) <- u;
        incr pos
      end
    done;
    sub.len.(v) <- !pos - sub.start.(v)
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

let priority_into w (a : adj) ~keep ~priority =
  (* Classify every entry once, calling the predicates with [u < v]:
     0 dropped, 1 a kept priority edge, 2 another kept edge. *)
  for v = 0 to w.n - 1 do
    for k = a.start.(v) to a.start.(v) + a.len.(v) - 1 do
      let u = a.nbr.(k) in
      let x = min u v and y = max u v in
      w.cls.(k) <- (if not (keep x y) then 0 else if priority x y then 1 else 2)
    done
  done;
  select_into w a 1 ~free:false;
  blossom_into w w.sub;
  let first = w.first in
  Array.blit w.mate 0 first 0 w.n;
  (* Restrict the non-priority edges to vertices still free after phase 1,
     then match those at maximum cardinality too. *)
  select_into w a 2 ~free:true;
  blossom_into w w.sub;
  for v = 0 to w.n - 1 do
    w.result.(v) <- (if first.(v) >= 0 then first.(v) else w.mate.(v))
  done;
  w.result

let greedy_into w (a : adj) ~keep ~weight =
  (* Kept edges [u < v] in lexicographic order, then a stable sort by
     decreasing weight: ties keep lexicographic order. The sort is a
     bottom-up merge sort of edge indices between [ord] and [tmp]. *)
  let m = ref 0 in
  for u = 0 to w.n - 1 do
    for k = a.start.(u) to a.start.(u) + a.len.(u) - 1 do
      let v = a.nbr.(k) in
      if u < v && keep u v then begin
        w.eu.(!m) <- u;
        w.ev.(!m) <- v;
        w.ew.(!m) <- weight u v;
        w.ord.(!m) <- !m;
        incr m
      end
    done
  done;
  let m = !m and ew = w.ew in
  let src = ref w.ord and dst = ref w.tmp and run = ref 1 in
  while !run < m do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < m do
      let mid = min m (!lo + !run) and hi = min m (!lo + (2 * !run)) in
      let i = ref !lo and j = ref mid in
      for o = !lo to hi - 1 do
        (* The right run's edge goes first only when strictly heavier. *)
        if !i < mid && (!j >= hi || ew.(s.(!j)) <= ew.(s.(!i))) then begin
          d.(o) <- s.(!i);
          incr i
        end
        else begin
          d.(o) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    run := 2 * !run
  done;
  let mate = w.result and sorted = !src in
  Array.fill mate 0 w.n (-1);
  for i = 0 to m - 1 do
    let e = sorted.(i) in
    let u = w.eu.(e) and v = w.ev.(e) in
    if mate.(u) < 0 && mate.(v) < 0 then begin
      mate.(u) <- v;
      mate.(v) <- u
    end
  done;
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

