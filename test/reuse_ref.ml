(* Reference reuse analysis: the persistent implementation that the
   in-place cursor of [Caqr.Reuse] replaced, kept verbatim as a test
   oracle (only this header is new). Every derived analysis here is a
   fresh record that copies its parent's chains, schedules and reach
   rows; [apply_incremental] and [ranked] are what the cursor's
   [link]/[unlink] and [push_ranked] must reproduce field for field. *)

type pair = { src : int; dst : int }

(* The root circuit's flat tables: built once by [analyze] and shared,
   read-only, by every analysis derived from it. *)
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
     them; their presence forces {!apply_incremental} onto the
     fresh-rebuild path. *)
  barriers : bool;
  words : int;  (* words per [qreach] row *)
}

(* A node of the reuse search: the root plus the links applied since.
   Linking [dst] after wire [src] chains original qubit [dst] behind the
   wire's last qubit [t]; on a barrier-free circuit its only new edges
   are the splice [last t -> (measure ->) conditional X -> first dst], so
   the chains fix the whole DAG. Node ids: root gate g is g, and the
   splice of the link into qubit q is [measure_node q], [if_x_node q]. *)
type analysis = {
  root : root;
  rev_pairs : pair list;  (* links applied since the root, latest first *)
  prev : int array;  (* chain predecessor of each original qubit, or -1 *)
  next : int array;  (* chain successor, or -1 *)
  tail : int array;  (* last original qubit of the chain headed by a wire *)
  (* unit-depth earliest-finish and longest-tail schedules per node id *)
  ef : int array;
  tl : int array;
  cp_depth : int;  (* critical path, in unit depth *)
  (* Bitset rows: bit b of row a says some gate on wire a reaches
     (reflexively) some gate on wire b. This qubit-level relation is all
     Condition 2 ever consults: the root derives it in one reverse sweep
     ({!reach_rows}), and it admits an exact O(k^2 / 63) update under a
     reuse link. *)
  qreach : int array;
  usage : int;
  (* The circuit, built on the first read ({!circuit}): a plain field, not
     a [Lazy.t], so two domains reading at once build it twice at worst. *)
  mutable built : Quantum.Circuit.t option;
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

let analyze circuit =
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
    rev_pairs = [];
    prev = Array.make k (-1);
    next = Array.make k (-1);
    tail = Array.init k Fun.id;
    ef;
    tl;
    cp_depth;
    qreach = reach_rows adj ~qa ~qb ~k ~words;
    usage = !usage;
    built = Some circuit;
  }

(* A wire is active when it carries gates: its head qubit had some, and
   has not been linked behind another wire. *)
let active a w = a.root.first.(w) >= 0 && a.prev.(w) < 0

let active_qubits a =
  let acc = ref [] in
  for q = a.root.k - 1 downto 0 do
    if active a q then acc := q :: !acc
  done;
  !acc

let reaches a p q = get_bit a.qreach a.root.words p q

(* No gate couples a qubit of src's chain with one of dst's: mark both
   chains, then scan the root's two-qubit gates. Only a wire's head
   carries its chain; any other wire is empty. *)
let condition1 a { src; dst } =
  let r = a.root in
  let side = Array.make r.k 0 in
  let rec mark v q = if q >= 0 then (side.(q) <- v; mark v a.next.(q)) in
  if a.prev.(src) < 0 then mark 1 src;
  if a.prev.(dst) < 0 then mark 2 dst;
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
  && src < a.root.k
  && dst < a.root.k
  && active a src
  && active a dst
  && not (reaches a dst src)

(* [f src dst] on every valid pair, in descending order. Column src of
   the reach rows is one word index and mask for the whole inner loop. *)
let iter_valid a f =
  let k = a.root.k and w = a.root.words in
  for src = k - 1 downto 0 do
    if active a src then begin
      let wi = src / bits and mask = 1 lsl (src mod bits) in
      for dst = k - 1 downto 0 do
        if dst <> src && active a dst && a.qreach.((dst * w) + wi) land mask = 0
        then f src dst
      done
    end
  done

let valid_pairs a =
  let acc = ref [] in
  iter_valid a (fun src dst -> acc := { src; dst } :: !acc);
  !acc

(* Wire summaries. Depth rises along every wire, so a wire's finish is
   the earliest finish of its last gate (the last gate of its chain's
   tail qubit), its start that of its first gate, and its tail that of
   its first gate: O(1) each. An empty wire reads 0. *)
let finish a w = if active a w then a.ef.(a.root.last.(a.tail.(w))) else 0
let start a w = if active a w then a.ef.(a.root.first.(w)) else 0
let tail_depth a w = if active a w then a.tl.(a.root.first.(w)) else 0

let src_finish_depth a { src; dst = _ } = finish a src
let dst_start_depth a { src = _; dst } = start a dst

(* The splice after a wire ending in a reusable measurement is one
   conditional X (1 layer); otherwise a measure and a conditional X (2). *)
let predict_ij a src dst =
  let reset_cost = if a.root.final_clbit.(a.tail.(src)) >= 0 then 1 else 2 in
  max a.cp_depth (finish a src + reset_cost + tail_depth a dst)

let predict_depth a { src; dst } = predict_ij a src dst

type rank = By_depth | By_chain

(* Each valid pair is packed as [key * k^2 + src * k + dst]: codes are
   distinct, so one unstable in-place int sort yields key order with
   ties in [valid_pairs] order, and stripping the key leaves the code.
   Keys are below (depth + 1)^2, so the packing fits while
   (depth + 1)^2 * k^2 < 2^62. *)
let ranked a rank =
  let k = a.root.k in
  let kk = k * k in
  let count = ref 0 in
  iter_valid a (fun _ _ -> incr count);
  let codes = Array.make !count 0 in
  let i = ref 0 and span = a.cp_depth + 1 in
  iter_valid a (fun src dst ->
      let key =
        match rank with
        | By_depth -> predict_ij a src dst
        | By_chain -> (finish a src * span) + start a dst
      in
      codes.(!i) <- (key * kk) + (src * k) + dst;
      incr i);
  Array.sort Int.compare codes;
  Array.map_inplace (fun c -> c mod kk) codes;
  codes

(* ---- Circuits ----

   Emission is Kahn's algorithm with least-id priority, the reset splice
   ordered after every src gate and before every dst gate. The parent's
   ids are topological and the splice's id is above every gate, so Kahn
   emits every gate that does not descend from dst's first gate in
   parent order, then the splice, then the descendants in parent order:
   a stable partition, no priority queue. [replay] applies that rule
   link by link from the root's order, so one rule builds both an
   {!emit}ted child and a derived analysis's circuit. *)

let replay r pairs =
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

let circuit a =
  match a.built with
  | Some c -> c
  | None ->
    let c = replay a.root (List.rev a.rev_pairs) in
    a.built <- Some c;
    c

let emit a p =
  if not (valid a p) then invalid_arg "Reuse.apply: invalid pair";
  replay a.root (List.rev (p :: a.rev_pairs))

let apply circuit p = emit (analyze circuit) p

(* ---- The incremental engine ---- *)

(* A growable binary min-heap of ints. *)
type heap = { mutable data : int array; mutable size : int }

let push h v =
  if h.size = Array.length h.data then begin
    let bigger = Array.make (2 * h.size) 0 in
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

(* The schedules after linking [dst] behind wire qubit [t]: the splice
   chain [ls -> (m ->) x -> fd] is the only new path. Earliest finishes
   can rise only on descendants of fd, longest tails only on ancestors
   of ls, and no node is both (Condition 2). Each side relaxes outward
   from its end of the splice, visiting only the nodes whose value
   rises, in parent-schedule order: a parent edge u -> v has
   ef(u) < ef(v), so popping by increasing parent ef settles every
   predecessor of a node before the node (decreasing, for tails). A node
   enters the heap the first time its value rises. *)
let spliced_schedules a ~prev ~next t dst =
  let r = a.root in
  let ef = Array.copy a.ef and tl = Array.copy a.tl in
  let size = Array.length ef in
  let ls = r.last.(t) and fd = r.first.(dst) in
  let x = if_x_node r dst and h = splice_head r ~prev dst in
  if h <> x then ef.(h) <- ef.(ls) + 1;
  ef.(x) <- ef.(if h = x then ls else h) + 1;
  tl.(x) <- tl.(fd) + 1;
  if h <> x then tl.(h) <- tl.(x) + 1;
  let heap = { data = Array.make 16 0; size = 0 } in
  let cp = ref a.cp_depth and cur = ref 0 in
  let raise_ef v =
    if !cur + 1 > ef.(v) then begin
      if ef.(v) = a.ef.(v) then push heap ((a.ef.(v) * size) + v);
      ef.(v) <- !cur + 1
    end
  in
  cur := ef.(x);
  raise_ef fd;
  while heap.size > 0 do
    let v = pop heap mod size in
    if ef.(v) > !cp then cp := ef.(v);
    cur := ef.(v);
    iter_succs r ~prev ~next v raise_ef
  done;
  let raise_tl v =
    if !cur + 1 > tl.(v) then begin
      if tl.(v) = a.tl.(v) then
        push heap (((a.cp_depth - a.ef.(v)) * size) + v);
      tl.(v) <- !cur + 1
    end
  in
  cur := tl.(h);
  raise_tl ls;
  while heap.size > 0 do
    let v = pop heap mod size in
    cur := tl.(v);
    iter_preds r ~prev v raise_tl
  done;
  (ef, tl, !cp)

(* The reach update. The reset splice sits after every src gate and
   before every dst gate and, on a barrier-free circuit, is the only new
   dependence, so projected to wires

     R'(a, b) = R(a, b) \/ (R(a, src) /\ R(dst, b)),

   row ORs on the bitset (in place is exact: R(dst, src) is false, so
   neither row dst nor column src changes). Rewiring dst's gates onto src
   then merges dst's row and column into src's, and dst's go empty —
   exactly what a fresh projection of the transformed circuit yields. *)
let merged_reach a src dst =
  let k = a.root.k and w = a.root.words in
  let q = Array.copy a.qreach in
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
  done;
  q

let splice_is_local a = not a.root.barriers

(* On a barrier-free circuit the child is the parent's chains plus one
   link, its schedules and reach updated along the splice; no circuit is
   emitted. Otherwise the child is a fresh analysis of the emitted
   circuit. *)
let apply_incremental a ({ src; dst } as p) =
  if not (splice_is_local a) then analyze (emit a p)
  else begin
    if not (valid a p) then invalid_arg "Reuse.apply: invalid pair";
    Obs.Metrics.incr "reuse.analyze.incremental";
    Obs.Metrics.time "time.analyze" @@ fun () ->
    let t = a.tail.(src) in
    let prev = Array.copy a.prev
    and next = Array.copy a.next
    and tail = Array.copy a.tail in
    prev.(dst) <- t;
    next.(t) <- dst;
    tail.(src) <- tail.(dst);
    let ef, tl, cp_depth = spliced_schedules a ~prev ~next t dst in
    {
      root = a.root;
      rev_pairs = p :: a.rev_pairs;
      prev;
      next;
      tail;
      ef;
      tl;
      cp_depth;
      qreach = merged_reach a src dst;
      usage = a.usage - 1;
      built = None;
    }
  end

let usage a = a.usage

let qubit_usage circuit = List.length (Quantum.Circuit.active_qubits circuit)
