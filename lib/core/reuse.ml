type pair = { src : int; dst : int }

(* The root circuit's flat tables: built once by [analyze] and shared,
   read-only, by every node the cursor visits. *)
type root = {
  circuit : Quantum.Circuit.t;
  n : int;  (* gate count *)
  k : int;  (* qubit count *)
  adj : Quantum.Dag.t;
  (* [qa.(g)], [qb.(g)]: gate g's qubits, -1 where it has fewer (and for
     barriers) — how a gate finds the splices attached to it. *)
  qa : int array;
  qb : int array;
  (* each original qubit's first and last non-barrier gate, -1 if none *)
  first : int array;
  last : int array;
  (* The clbit of the qubit's final measurement when that measurement is
     the clbit's sole user, else -1. The reset splice after such a wire
     is a lone conditional X driven by that clbit. *)
  final_clbit : int array;
  (* Barrier pseudo-gates chain on their wires without appearing in
     [qa]/[qb]/[first]/[last], so the splice algebra below cannot track
     them; their presence forces {!link} onto the fresh-rebuild path. *)
  barriers : bool;
  words : int;  (* words per [qreach] row *)
}

(* One node's state over a root: the root plus the links applied since.
   Linking [dst] after wire [src] chains original qubit [dst] behind the
   wire's last qubit [t]; on a barrier-free circuit its only new edges
   are the splice [last t -> (measure ->) conditional X -> first dst], so
   the chains fix the whole DAG. Node ids: root gate g is g, and the
   splice of the link into qubit q is [measure_node q], [if_x_node q].
   Every field is updated in place by {!link} and restored by
   {!unlink}. *)
type state = {
  root : root;
  prev : int array;  (* chain predecessor of each original qubit, or -1 *)
  next : int array;  (* chain successor, or -1 *)
  tail : int array;  (* last original qubit of the chain headed by a wire *)
  (* unit-depth earliest-finish and longest-tail schedules per node id *)
  ef : int array;
  tl : int array;
  mutable cp_depth : int;  (* critical path, in unit depth *)
  (* Bitset rows: bit b of row a says some gate on wire a reaches
     (reflexively) some gate on wire b. This qubit-level relation is all
     Condition 2 ever consults: the root derives it in one reverse sweep
     ({!reach_rows}), and it admits an exact O(k^2 / 63) update under a
     reuse link. *)
  qreach : int array;
  mutable usage : int;
}

(* A growable binary min-heap of ints. *)
type heap = { mutable data : int array; mutable size : int }

(* The search cursor: the current node's state plus what {!unlink} needs
   to restore its parent, in buffers that grow to the deepest link and
   are then reused. Link [d] (0-based) saves the parent's critical path
   in [saved_cp.(d)], its reach rows at [saved_reach.(d * k * words)],
   and the trail length in [trail_mark.(d)]; the trail holds a
   (cell, old value) pair for every schedule cell the link raised. A
   {!commit} saves none of this: it raises [floor] to its depth, and no
   {!unlink} goes below [floor]. *)
type analysis = {
  base : root;  (* the circuit the cursor was made for *)
  mutable s : state;
  (* With barriers each link is a fresh analysis of the emitted circuit:
     the ancestors' states, parent first, wait here for {!unlink}. *)
  mutable ancestors : state list;
  mutable depth : int;  (* links applied since [base] *)
  mutable floor : int;  (* depth of the latest commit, 0 if none *)
  link_src : int array;
  link_dst : int array;
  saved_cp : int array;
  trail_mark : int array;
  mutable saved_reach : int array;
  mutable trail : int array;  (* cell, old value; a [tl] cell is [size + v] *)
  mutable trail_len : int;
  mutable trailing : bool;  (* false while a commit relaxes *)
  (* [stamp.(v) = clock] marks a cell already raised (and trailed) by the
     current link's [ef] pass, [clock + 1] by its [tl] pass. *)
  mutable stamp : int array;
  mutable clock : int;
  mutable cur : int;  (* the relaxation's current value *)
  heap : heap;
  (* The current node's circuit once read ({!circuit}); any move drops
     it. *)
  mutable built : Quantum.Circuit.t option;
  (* In-place links and the seconds they took, not yet published to
     {!Obs.Metrics} ({!flush}). An unlink is backtracking, timed with
     the search that calls it. *)
  mutable links : int;
  link_s : float array;
}

let bits = Sys.int_size

let get_bit q w x y = (q.((x * w) + (y / bits)) lsr (y mod bits)) land 1 = 1

let set_bit q w x y =
  let i = (x * w) + (y / bits) in
  q.(i) <- q.(i) lor (1 lsl (y mod bits))

let measure_node r q = r.n + (2 * q)
let if_x_node r q = r.n + (2 * q) + 1

(* The first node of the splice into q: its measure, or the conditional X
   when the wire before it ends in a reusable measurement. *)
let splice_head r ~prev q =
  if r.final_clbit.(prev.(q)) >= 0 then if_x_node r q else measure_node r q

(* Successors and predecessors of a node under the links [prev]/[next]:
   the root's edges, plus the splice chains. A two-qubit gate can open or
   close two wires, hence the two checks. *)
let iter_succs r ~prev ~next v f =
  if v < r.n then begin
    let { Quantum.Dag.succ_start; succ_ids; _ } = r.adj in
    for e = succ_start.(v) to succ_start.(v + 1) - 1 do
      f succ_ids.(e)
    done;
    let q = r.qa.(v) in
    if q >= 0 && r.last.(q) = v && next.(q) >= 0 then
      f (splice_head r ~prev next.(q));
    let q = r.qb.(v) in
    if q >= 0 && r.last.(q) = v && next.(q) >= 0 then
      f (splice_head r ~prev next.(q))
  end
  else
    let q = (v - r.n) / 2 in
    if v = measure_node r q then f (if_x_node r q) else f r.first.(q)

let iter_preds r ~prev v f =
  if v < r.n then begin
    let { Quantum.Dag.pred_start; pred_ids; _ } = r.adj in
    for e = pred_start.(v) to pred_start.(v + 1) - 1 do
      f pred_ids.(e)
    done;
    let q = r.qa.(v) in
    if q >= 0 && r.first.(q) = v && prev.(q) >= 0 then f (if_x_node r q);
    let q = r.qb.(v) in
    if q >= 0 && r.first.(q) = v && prev.(q) >= 0 then f (if_x_node r q)
  end
  else
    let q = (v - r.n) / 2 in
    if v = if_x_node r q && splice_head r ~prev q <> v then
      f (measure_node r q)
    else f r.last.(prev.(q))

(* Earliest-finish and longest-tail schedules of the root in unit depth,
   one forward and one backward sweep over the DAG. The arrays leave two
   slots per qubit for the splices of later links. *)
let root_schedules circuit (adj : Quantum.Dag.t) ~size =
  let gates = circuit.Quantum.Circuit.gates in
  let { Quantum.Dag.pred_start; pred_ids; succ_start; succ_ids } = adj in
  let n = Array.length gates in
  let ef = Array.make size 0 and tl = Array.make size 0 in
  let cp_depth = ref 0 in
  let cost i = if Quantum.Gate.is_barrier gates.(i).Quantum.Gate.kind then 0 else 1 in
  for i = 0 to n - 1 do
    let sd = ref 0 in
    for e = pred_start.(i) to pred_start.(i + 1) - 1 do
      if ef.(pred_ids.(e)) > !sd then sd := ef.(pred_ids.(e))
    done;
    ef.(i) <- !sd + cost i;
    if ef.(i) > !cp_depth then cp_depth := ef.(i)
  done;
  for i = n - 1 downto 0 do
    let sd = ref 0 in
    for e = succ_start.(i) to succ_start.(i + 1) - 1 do
      if tl.(succ_ids.(e)) > !sd then sd := tl.(succ_ids.(e))
    done;
    tl.(i) <- !sd + cost i
  done;
  (ef, tl, !cp_depth)

(* The qubit reach rows in one reverse sweep. Gate g's row is its own
   wires OR'd with its successors' rows, so bit b says g reaches
   (reflexively) a gate on wire b; wire a's row ORs the rows of a's
   gates. Barriers carry reach through their successors without adding
   wires of their own. O(edges * words). *)
let reach_rows (adj : Quantum.Dag.t) ~qa ~qb ~k ~words =
  let { Quantum.Dag.succ_start; succ_ids; _ } = adj in
  let n = Array.length qa in
  let rows = Array.make (n * words) 0 and qreach = Array.make (k * words) 0 in
  let or_row dst d src s =
    for i = 0 to words - 1 do
      dst.(d + i) <- dst.(d + i) lor src.(s + i)
    done
  in
  for g = n - 1 downto 0 do
    let base = g * words in
    for e = succ_start.(g) to succ_start.(g + 1) - 1 do
      or_row rows base rows (succ_ids.(e) * words)
    done;
    if qa.(g) >= 0 then set_bit rows words g qa.(g);
    if qb.(g) >= 0 then set_bit rows words g qb.(g);
    if qa.(g) >= 0 then or_row qreach (qa.(g) * words) rows base;
    if qb.(g) >= 0 then or_row qreach (qb.(g) * words) rows base
  done;
  qreach

(* A fresh analysis of [circuit]: its root tables and the root node's
   state. *)
let root_state circuit =
  Obs.Metrics.incr "reuse.analyze.fresh";
  Obs.Metrics.time "time.analyze" @@ fun () ->
  let adj = Quantum.Dag.build circuit in
  let gates = circuit.Quantum.Circuit.gates in
  let n = Array.length gates and k = circuit.Quantum.Circuit.num_qubits in
  let qa = Array.make n (-1) and qb = Array.make n (-1) in
  let first = Array.make k (-1) and last = Array.make k (-1) in
  let users = Array.make circuit.Quantum.Circuit.num_clbits 0 in
  let barriers = ref false in
  let touch i q =
    if first.(q) < 0 then first.(q) <- i;
    last.(q) <- i
  in
  Array.iteri
    (fun i g ->
      let kind = g.Quantum.Gate.kind in
      if Quantum.Gate.is_barrier kind then barriers := true
      else begin
        (match Quantum.Gate.qubits kind with
         | [ a ] ->
           qa.(i) <- a;
           touch i a
         | [ a; b ] ->
           qa.(i) <- a;
           qb.(i) <- b;
           touch i a;
           touch i b
         | _ -> ());
        List.iter (fun c -> users.(c) <- users.(c) + 1) (Quantum.Gate.clbits kind)
      end)
    gates;
  let final_clbit = Array.make k (-1) in
  let usage = ref 0 in
  for q = 0 to k - 1 do
    if last.(q) >= 0 then begin
      incr usage;
      match gates.(last.(q)).Quantum.Gate.kind with
      | Quantum.Gate.Measure (_, c) when users.(c) = 1 -> final_clbit.(q) <- c
      | _ -> ()
    end
  done;
  let words = (k + bits - 1) / bits in
  let ef, tl, cp_depth = root_schedules circuit adj ~size:(n + (2 * k)) in
  {
    root =
      {
        circuit;
        n;
        k;
        adj;
        qa;
        qb;
        first;
        last;
        final_clbit;
        barriers = !barriers;
        words;
      };
    prev = Array.make k (-1);
    next = Array.make k (-1);
    tail = Array.init k Fun.id;
    ef;
    tl;
    cp_depth;
    qreach = reach_rows adj ~qa ~qb ~k ~words;
    usage = !usage;
  }

(* The undo buffers are sized for the deepest possible walk (each link
   retires a wire, so at most [k - 1] links) except the reach rows, the
   trail and the stamps, which grow on first use: a cursor that never
   links in place allocates none of them. *)
let analyze circuit =
  let s = root_state circuit in
  let slots = max 1 s.root.k in
  {
    base = s.root;
    s;
    ancestors = [];
    depth = 0;
    floor = 0;
    link_src = Array.make slots 0;
    link_dst = Array.make slots 0;
    saved_cp = Array.make slots 0;
    trail_mark = Array.make slots 0;
    saved_reach = [||];
    trail = [||];
    trail_len = 0;
    trailing = true;
    stamp = [||];
    clock = 0;
    cur = 0;
    heap = { data = [||]; size = 0 };
    built = None;
    links = 0;
    link_s = [| 0. |];
  }

(* A wire is active when it carries gates: its head qubit had some, and
   has not been linked behind another wire. *)
let active a w = a.s.root.first.(w) >= 0 && a.s.prev.(w) < 0

let active_qubits a =
  let acc = ref [] in
  for q = a.s.root.k - 1 downto 0 do
    if active a q then acc := q :: !acc
  done;
  !acc

let reaches a p q = get_bit a.s.qreach a.s.root.words p q

(* No gate couples a qubit of src's chain with one of dst's: mark both
   chains, then scan the root's two-qubit gates. Only a wire's head
   carries its chain; any other wire is empty. *)
let condition1 a { src; dst } =
  let s = a.s in
  let r = s.root in
  let side = Array.make r.k 0 in
  let rec mark v q = if q >= 0 then (side.(q) <- v; mark v s.next.(q)) in
  if s.prev.(src) < 0 then mark 1 src;
  if s.prev.(dst) < 0 then mark 2 dst;
  let rec apart g =
    g >= r.n
    || ((r.qb.(g) < 0 || side.(r.qa.(g)) lor side.(r.qb.(g)) <> 3) && apart (g + 1))
  in
  apart 0

(* No gate on dst may reach a gate on src. *)
let condition2 a { src; dst } = not (reaches a dst src)

(* Condition 2 implies Condition 1: a gate coupling src and dst is a
   gate on dst that reaches (reflexively) a gate on src. So validity is
   one bit test past the range and activity checks. *)
let valid a { src; dst } =
  src <> dst
  && src >= 0
  && dst >= 0
  && src < a.s.root.k
  && dst < a.s.root.k
  && active a src
  && active a dst
  && not (reaches a dst src)

(* [f src dst] on every valid pair, in descending order. Column src of
   the reach rows is one word index and mask for the whole inner loop. *)
let iter_valid a f =
  let k = a.s.root.k and w = a.s.root.words in
  for src = k - 1 downto 0 do
    if active a src then begin
      let wi = src / bits and mask = 1 lsl (src mod bits) in
      for dst = k - 1 downto 0 do
        if dst <> src && active a dst && a.s.qreach.((dst * w) + wi) land mask = 0
        then f src dst
      done
    end
  done

let valid_srcs a dst out =
  let k = a.s.root.k and w = a.s.root.words in
  let n = ref 0 in
  if dst >= 0 && dst < k && active a dst then begin
    let row = dst * w in
    for src = 0 to k - 1 do
      if src <> dst
         && active a src
         && (a.s.qreach.(row + (src / bits)) lsr (src mod bits)) land 1 = 0
      then begin
        out.(!n) <- src;
        incr n
      end
    done
  end;
  !n

let valid_pairs a =
  let acc = ref [] in
  iter_valid a (fun src dst -> acc := { src; dst } :: !acc);
  !acc

(* Wire summaries. Depth rises along every wire, so a wire's finish is
   the earliest finish of its last gate (the last gate of its chain's
   tail qubit), its start that of its first gate, and its tail that of
   its first gate: O(1) each. An empty wire reads 0. *)
let finish a w = if active a w then a.s.ef.(a.s.root.last.(a.s.tail.(w))) else 0
let start a w = if active a w then a.s.ef.(a.s.root.first.(w)) else 0
let tail_depth a w = if active a w then a.s.tl.(a.s.root.first.(w)) else 0

let src_finish_depth a { src; dst = _ } = finish a src
let dst_start_depth a { src = _; dst } = start a dst

(* The splice after a wire ending in a reusable measurement is one
   conditional X (1 layer); otherwise a measure and a conditional X (2). *)
let predict_ij a src dst =
  let reset_cost = if a.s.root.final_clbit.(a.s.tail.(src)) >= 0 then 1 else 2 in
  max a.s.cp_depth (finish a src + reset_cost + tail_depth a dst)

let predict_depth a { src; dst } = predict_ij a src dst

type rank = By_depth | By_chain

type stack = { mutable items : int array; mutable len : int }

let stack () = { items = Array.make 64 0; len = 0 }

let stack_push st v =
  if st.len = Array.length st.items then begin
    let bigger = Array.make (max 16 (2 * st.len)) 0 in
    Array.blit st.items 0 bigger 0 st.len;
    st.items <- bigger
  end;
  st.items.(st.len) <- v;
  st.len <- st.len + 1

(* Heapsort of [d.(lo) .. d.(lo + n - 1)], ascending, in place. *)
let rec sift (d : int array) lo n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && d.(lo + l + 1) > d.(lo + l) then l + 1 else l in
    if d.(lo + c) > d.(lo + i) then begin
      let t = d.(lo + i) in
      d.(lo + i) <- d.(lo + c);
      d.(lo + c) <- t;
      sift d lo n c
    end
  end

let sort_slice (d : int array) lo n =
  for i = (n / 2) - 1 downto 0 do
    sift d lo n i
  done;
  for m = n - 1 downto 1 do
    let t = d.(lo) in
    d.(lo) <- d.(lo + m);
    d.(lo + m) <- t;
    sift d lo m 0
  done

(* Each valid pair is pushed as [key * k^2 + src * k + dst]: codes are
   distinct, so one in-place sort of the slice yields key order with
   ties in [valid_pairs] order, and stripping the key leaves the code.
   Keys are below (depth + 1)^2, so the packing fits while
   (depth + 1)^2 * k^2 < 2^62. The loop is {!iter_valid}'s, written out
   so that a call allocates no closure. *)
let push_ranked a rank st =
  let s = a.s in
  let k = s.root.k and w = s.root.words in
  let kk = k * k and span = s.cp_depth + 1 in
  let base = st.len in
  for src = k - 1 downto 0 do
    if active a src then begin
      let wi = src / bits and mask = 1 lsl (src mod bits) in
      for dst = k - 1 downto 0 do
        if dst <> src && active a dst && s.qreach.((dst * w) + wi) land mask = 0
        then begin
          let key =
            match rank with
            | By_depth -> predict_ij a src dst
            | By_chain -> (finish a src * span) + start a dst
          in
          stack_push st ((key * kk) + (src * k) + dst)
        end
      done
    end
  done;
  let n = st.len - base in
  let d = st.items in
  sort_slice d base n;
  for i = base to st.len - 1 do
    d.(i) <- d.(i) mod kk
  done;
  n

(* ---- Circuits ----

   Emission is Kahn's algorithm with least-id priority, the reset splice
   ordered after every src gate and before every dst gate. The parent's
   ids are topological and the splice's id is above every gate, so Kahn
   emits every gate that does not descend from dst's first gate in
   parent order, then the splice, then the descendants in parent order:
   a stable partition, no priority queue. [replay_root] applies that
   rule link by link from the root's order, so one rule builds both an
   {!emit}ted child and the circuit of any node the cursor reaches. *)

let replay_root r pairs =
  let k = r.k in
  let size = r.n + (2 * k) in
  let prev = Array.make k (-1)
  and next = Array.make k (-1)
  and tail = Array.init k Fun.id in
  let order = Array.make size 0 and moved = Array.make size 0 in
  for i = 0 to r.n - 1 do
    order.(i) <- i
  done;
  let len = ref r.n in
  let in_b = Bytes.make size '\000' in
  let mark v = Bytes.unsafe_set in_b v '\001' in
  let marked v = Bytes.unsafe_get in_b v <> '\000' in
  let clbit = Array.make k (-1) in
  let clbits = ref r.circuit.Quantum.Circuit.num_clbits in
  List.iter
    (fun { src; dst } ->
      let t = tail.(src) in
      Bytes.fill in_b 0 size '\000';
      mark r.first.(dst);
      (* [order] is topological: the scan reaches a node after all its
         predecessors, so marking the successors of every marked node
         marks every descendant *)
      for i = 0 to !len - 1 do
        let v = order.(i) in
        if marked v then iter_succs r ~prev ~next v mark
      done;
      let j = ref 0 in
      let put v =
        moved.(!j) <- v;
        incr j
      in
      for i = 0 to !len - 1 do
        if not (marked order.(i)) then put order.(i)
      done;
      if r.final_clbit.(t) >= 0 then clbit.(dst) <- r.final_clbit.(t)
      else begin
        clbit.(dst) <- !clbits;
        incr clbits;
        put (measure_node r dst)
      end;
      put (if_x_node r dst);
      for i = 0 to !len - 1 do
        if marked order.(i) then put order.(i)
      done;
      Array.blit moved 0 order 0 !j;
      len := !j;
      prev.(dst) <- t;
      next.(t) <- dst;
      tail.(src) <- tail.(dst))
    pairs;
  (* Every original qubit ends on the wire of its chain's head. *)
  let head = Array.init k Fun.id in
  for w = 0 to k - 1 do
    if prev.(w) < 0 then begin
      let q = ref next.(w) in
      while !q >= 0 do
        head.(!q) <- w;
        q := next.(!q)
      done
    end
  done;
  let gates = r.circuit.Quantum.Circuit.gates in
  let rename q = head.(q) in
  let kind v =
    if v < r.n then
      let kind = gates.(v).Quantum.Gate.kind in
      let moves q = q >= 0 && head.(q) <> q in
      (* Barriers always go through [map_qubits], which normalises their
         wire set; other kinds off the moved wires are shared. *)
      if Quantum.Gate.is_barrier kind || moves r.qa.(v) || moves r.qb.(v) then
        Quantum.Gate.map_qubits rename kind
      else kind
    else
      let q = (v - r.n) / 2 in
      if v = measure_node r q then Quantum.Gate.Measure (head.(q), clbit.(q))
      else Quantum.Gate.If_x (clbit.(q), head.(q))
  in
  Obs.Metrics.incr "reuse.materialized";
  Quantum.Circuit.of_kind_array ~num_qubits:k ~num_clbits:!clbits
    (Array.init !len (fun i -> kind order.(i)))

(* The links from the current state's root to the cursor: all of them
   on a barrier-free circuit, none with barriers (each state there is a
   fresh root). *)
let local_path a =
  if a.base.barriers then []
  else List.init a.depth (fun i -> { src = a.link_src.(i); dst = a.link_dst.(i) })

let circuit a =
  if a.base.barriers || a.depth = 0 then a.s.root.circuit
  else
    match a.built with
    | Some c -> c
    | None ->
      let c = replay_root a.s.root (local_path a) in
      a.built <- Some c;
      c

let emit a p =
  if not (valid a p) then invalid_arg "Reuse.apply: invalid pair";
  replay_root a.s.root (local_path a @ [ p ])

let apply circuit p = emit (analyze circuit) p

let replay a pairs =
  match pairs with
  | [] -> a.base.circuit
  | _ when a.base.barriers -> List.fold_left apply a.base.circuit pairs
  | _ -> replay_root a.base pairs

(* ---- The in-place link ---- *)

let push h v =
  if h.size = Array.length h.data then begin
    let bigger = Array.make (max 16 (2 * h.size)) 0 in
    Array.blit h.data 0 bigger 0 h.size;
    h.data <- bigger
  end;
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && h.data.((!i - 1) / 2) > v do
    h.data.(!i) <- h.data.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.data.(!i) <- v

let pop h =
  let d = h.data in
  let top = d.(0) in
  h.size <- h.size - 1;
  let last = d.(h.size) in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= h.size then continue := false
    else begin
      let c = if l + 1 < h.size && d.(l + 1) < d.(l) then l + 1 else l in
      if d.(c) < last then begin
        d.(!i) <- d.(c);
        i := c
      end
      else continue := false
    end
  done;
  d.(!i) <- last;
  top

(* Record that schedule cell [cell] held [old] before this link; a
   commit records nothing. *)
let trail_push a cell old =
  if a.trailing then begin
    if a.trail_len + 2 > Array.length a.trail then begin
      let bigger = Array.make (max 64 (2 * Array.length a.trail)) 0 in
      Array.blit a.trail 0 bigger 0 a.trail_len;
      a.trail <- bigger
    end;
    a.trail.(a.trail_len) <- cell;
    a.trail.(a.trail_len + 1) <- old;
    a.trail_len <- a.trail_len + 2
  end

let set_ef a v x =
  trail_push a v a.s.ef.(v);
  a.s.ef.(v) <- x

let set_tl a v x =
  trail_push a (Array.length a.s.ef + v) a.s.tl.(v);
  a.s.tl.(v) <- x

(* Raise [v]'s earliest finish to [cur + 1]. The first raise of a link
   trails the old value and queues [v] by it. *)
let raise_ef a v =
  let ef = a.s.ef in
  if a.cur + 1 > ef.(v) then begin
    if a.stamp.(v) <> a.clock then begin
      a.stamp.(v) <- a.clock;
      trail_push a v ef.(v);
      push a.heap ((ef.(v) * Array.length ef) + v)
    end;
    ef.(v) <- a.cur + 1
  end

(* Likewise for longest tails, queued by decreasing earliest finish.
   [v] is an ancestor of the splice, whose earliest finish this link
   leaves alone, and [parent_cp] is the parent's critical path. *)
let raise_tl a parent_cp v =
  let s = a.s in
  if a.cur + 1 > s.tl.(v) then begin
    if a.stamp.(v) <> a.clock + 1 then begin
      a.stamp.(v) <- a.clock + 1;
      trail_push a (Array.length s.ef + v) s.tl.(v);
      push a.heap (((parent_cp - s.ef.(v)) * Array.length s.ef) + v)
    end;
    s.tl.(v) <- a.cur + 1
  end

(* The schedules after linking [dst] behind wire qubit [t] (the chains
   already linked): the splice chain [ls -> (m ->) x -> fd] is the only
   new path. Earliest finishes can rise only on descendants of fd,
   longest tails only on ancestors of ls, and no node is both
   (Condition 2). Each side relaxes outward from its end of the splice,
   visiting only the nodes whose value rises, in parent-schedule order: a
   parent edge u -> v has ef(u) < ef(v), so popping by increasing parent
   ef settles every predecessor of a node before the node (decreasing,
   for tails). A node enters the heap the first time its value rises. *)
let splice_schedules a t dst =
  let s = a.s in
  let r = s.root in
  let size = Array.length s.ef in
  if Array.length a.stamp < size then a.stamp <- Array.make size (-1);
  a.clock <- a.clock + 2;
  let parent_cp = s.cp_depth in
  let ls = r.last.(t) and fd = r.first.(dst) in
  let x = if_x_node r dst and h = splice_head r ~prev:s.prev dst in
  if h <> x then set_ef a h (s.ef.(ls) + 1);
  set_ef a x (s.ef.(if h = x then ls else h) + 1);
  set_tl a x (s.tl.(fd) + 1);
  if h <> x then set_tl a h (s.tl.(x) + 1);
  let cp = ref parent_cp in
  let up = raise_ef a in
  a.cur <- s.ef.(x);
  up fd;
  while a.heap.size > 0 do
    let v = pop a.heap mod size in
    if s.ef.(v) > !cp then cp := s.ef.(v);
    a.cur <- s.ef.(v);
    iter_succs r ~prev:s.prev ~next:s.next v up
  done;
  let up = raise_tl a parent_cp in
  a.cur <- s.tl.(h);
  up ls;
  while a.heap.size > 0 do
    let v = pop a.heap mod size in
    a.cur <- s.tl.(v);
    iter_preds r ~prev:s.prev v up
  done;
  s.cp_depth <- !cp

(* The reach update. The reset splice sits after every src gate and
   before every dst gate and, on a barrier-free circuit, is the only new
   dependence, so projected to wires

     R'(a, b) = R(a, b) \/ (R(a, src) /\ R(dst, b)),

   row ORs on the bitset (in place is exact: R(dst, src) is false, so
   neither row dst nor column src changes). Rewiring dst's gates onto src
   then merges dst's row and column into src's, and dst's go empty —
   exactly what a fresh projection of the transformed circuit yields. *)
let merge_reach s src dst =
  let k = s.root.k and w = s.root.words in
  let q = s.qreach in
  let sbase = src * w and dbase = dst * w in
  let swi = src / bits and smask = 1 lsl (src mod bits) in
  let dwi = dst / bits and dmask = 1 lsl (dst mod bits) in
  for x = 0 to k - 1 do
    if q.((x * w) + swi) land smask <> 0 then
      for i = 0 to w - 1 do
        q.((x * w) + i) <- q.((x * w) + i) lor q.(dbase + i)
      done
  done;
  for i = 0 to w - 1 do
    q.(sbase + i) <- q.(sbase + i) lor q.(dbase + i);
    q.(dbase + i) <- 0
  done;
  for x = 0 to k - 1 do
    let d = (x * w) + dwi in
    if q.(d) land dmask <> 0 then begin
      q.(d) <- q.(d) land lnot dmask;
      q.((x * w) + swi) <- q.((x * w) + swi) lor smask
    end
  done

let splice_is_local a = not a.base.barriers

(* On a barrier-free circuit the link updates the chains, then the
   schedules and reach rows along the splice, in place; no circuit is
   emitted. Otherwise the new node is a fresh analysis of the emitted
   circuit, pushed over its parent's. With [~undo:false] (a commit)
   nothing of the parent is kept. *)
let move a ~undo ({ src; dst } as p) =
  if not (valid a p) then invalid_arg "Reuse.apply: invalid pair";
  let d = a.depth in
  a.link_src.(d) <- src;
  a.link_dst.(d) <- dst;
  a.built <- None;
  if a.base.barriers then begin
    if undo then a.ancestors <- a.s :: a.ancestors;
    a.s <- root_state (replay_root a.s.root [ p ])
  end
  else begin
    let t0 = Unix.gettimeofday () in
    let s = a.s in
    if undo then begin
      let kw = s.root.k * s.root.words in
      if Array.length a.saved_reach < (d + 1) * kw then begin
        let bigger =
          Array.make (max ((d + 1) * kw) (2 * Array.length a.saved_reach)) 0
        in
        Array.blit a.saved_reach 0 bigger 0 (Array.length a.saved_reach);
        a.saved_reach <- bigger
      end;
      Array.blit s.qreach 0 a.saved_reach (d * kw) kw;
      a.saved_cp.(d) <- s.cp_depth;
      a.trail_mark.(d) <- a.trail_len
    end;
    a.trailing <- undo;
    let t = s.tail.(src) in
    s.prev.(dst) <- t;
    s.next.(t) <- dst;
    s.tail.(src) <- s.tail.(dst);
    splice_schedules a t dst;
    merge_reach s src dst;
    s.usage <- s.usage - 1;
    a.links <- a.links + 1;
    a.link_s.(0) <- a.link_s.(0) +. (Unix.gettimeofday () -. t0)
  end;
  a.depth <- d + 1;
  if not undo then a.floor <- d + 1

let link a p = move a ~undo:true p
let commit a p = move a ~undo:false p

(* Undo the latest link: the chains by their three cells, the schedule
   cells from the trail (newest first, so a cell raised twice gets its
   oldest value back), the reach rows and critical path from their
   saved copies. *)
let unlink a =
  let d = a.depth - 1 in
  if d < 0 then invalid_arg "Reuse.unlink: no link to undo";
  if d < a.floor then invalid_arg "Reuse.unlink: the link is committed";
  a.depth <- d;
  a.built <- None;
  if a.base.barriers then
    match a.ancestors with
    | parent :: rest ->
      a.s <- parent;
      a.ancestors <- rest
    | [] -> assert false
  else begin
    let s = a.s in
    let src = a.link_src.(d) and dst = a.link_dst.(d) in
    let t = s.prev.(dst) in
    s.prev.(dst) <- -1;
    s.next.(t) <- -1;
    s.tail.(src) <- t;
    let size = Array.length s.ef in
    let mark = a.trail_mark.(d) in
    let i = ref (a.trail_len - 2) in
    while !i >= mark do
      let cell = a.trail.(!i) and old = a.trail.(!i + 1) in
      if cell < size then s.ef.(cell) <- old else s.tl.(cell - size) <- old;
      i := !i - 2
    done;
    a.trail_len <- mark;
    let kw = s.root.k * s.root.words in
    Array.blit a.saved_reach (d * kw) s.qreach 0 kw;
    s.cp_depth <- a.saved_cp.(d);
    s.usage <- s.usage + 1
  end

let flush a =
  if a.links > 0 then begin
    Obs.Metrics.incr ~by:a.links "reuse.analyze.incremental";
    a.links <- 0
  end;
  if a.link_s.(0) > 0. then begin
    Obs.Metrics.add_time "time.analyze" a.link_s.(0);
    a.link_s.(0) <- 0.
  end

let fields a =
  let s = a.s in
  [
    ("prev", Array.copy s.prev);
    ("next", Array.copy s.next);
    ("tail", Array.copy s.tail);
    ("ef", Array.copy s.ef);
    ("tl", Array.copy s.tl);
    ("cp_depth", [| s.cp_depth |]);
    ("qreach", Array.copy s.qreach);
    ("usage", [| s.usage |]);
  ]

let usage a = a.s.usage

let qubit_usage circuit = List.length (Quantum.Circuit.active_qubits circuit)
