(* Adjacency in compressed form: the predecessors of node [i] are
   [pred_ids.(pred_start.(i)) .. pred_ids.(pred_start.(i + 1) - 1)], and
   likewise for successors. Two flat int arrays per direction instead of
   one list cell per edge: the router and the incremental reuse engine
   walk them in place on every step, and the reuse engine shares one
   root's arrays across every search node it derives. *)
type adjacency = {
  pred_start : int array;
  pred_ids : int array;
  succ_start : int array;
  succ_ids : int array;
}

type t = {
  circuit : Circuit.t;
  adj : adjacency;
  on_qubit : int list array;  (* reversed during build, stored in order *)
}

(* Predecessors are appended gate by gate into one growing buffer (a
   gate's dependences all point at earlier gates, so gate [i]'s slice is
   complete once [i] is read), deduplicated within the slice. Successor
   slices are filled from the last gate down, so each lists its
   successors latest first: the router and SR-CaQR visit successors in
   that order. *)
let build (c : Circuit.t) =
  let n = Array.length c.gates in
  let on_qubit = Array.make (max 1 c.num_qubits) [] in
  let last_q = Array.make (max 1 c.num_qubits) (-1) in
  let last_c = Array.make (max 1 c.num_clbits) (-1) in
  let pred_start = Array.make (n + 1) 0 in
  let buf = ref (Array.make (max 16 (2 * n)) 0) and len = ref 0 in
  let add_dep src dst =
    if src >= 0 && src <> dst then begin
      let dup = ref false in
      for e = pred_start.(dst) to !len - 1 do
        if !buf.(e) = src then dup := true
      done;
      if not !dup then begin
        if !len = Array.length !buf then begin
          let bigger = Array.make (2 * !len) 0 in
          Array.blit !buf 0 bigger 0 !len;
          buf := bigger
        end;
        !buf.(!len) <- src;
        incr len
      end
    end
  in
  Array.iter
    (fun g ->
      let i = g.Gate.id in
      let k = g.Gate.kind in
      pred_start.(i) <- !len;
      if Gate.is_barrier k then
        (* Barriers order every wire they span but are not nodes we weight:
           model them as ordinary nodes with zero cost downstream. *)
        List.iter
          (fun q ->
            add_dep last_q.(q) i;
            last_q.(q) <- i)
          (Gate.qubits k)
      else begin
        List.iter
          (fun q ->
            add_dep last_q.(q) i;
            last_q.(q) <- i;
            on_qubit.(q) <- i :: on_qubit.(q))
          (Gate.qubits k);
        List.iter
          (fun cb ->
            add_dep last_c.(cb) i;
            last_c.(cb) <- i)
          (Gate.clbits k)
      end)
    c.gates;
  pred_start.(n) <- !len;
  let pred_ids = Array.sub !buf 0 !len in
  let succ_start = Array.make (n + 1) 0 in
  Array.iter (fun p -> succ_start.(p + 1) <- succ_start.(p + 1) + 1) pred_ids;
  for i = 1 to n do
    succ_start.(i) <- succ_start.(i) + succ_start.(i - 1)
  done;
  let succ_ids = Array.make !len 0 in
  let fill = Array.sub succ_start 0 (max 1 n) in
  for i = n - 1 downto 0 do
    for e = pred_start.(i) to pred_start.(i + 1) - 1 do
      let p = pred_ids.(e) in
      succ_ids.(fill.(p)) <- i;
      fill.(p) <- fill.(p) + 1
    done
  done;
  {
    circuit = c;
    adj = { pred_start; pred_ids; succ_start; succ_ids };
    on_qubit = Array.map List.rev on_qubit;
  }

(* [of_parts] trusts its caller for *content* (that the adjacency is the
   one [build] would derive) but not for *shape*: a relabelling bug shows
   up as an out-of-range id, a duplicate, a backward edge, or a wire list
   that disagrees with the circuit — all cheap to detect here and
   miserable to debug downstream where they surface as phantom cycles.
   The length checks (offset arrays one longer than the gate count,
   spanning their id arrays) are free and unconditional; the per-edge
   checks are O(edges) and can be skipped with [~check:false] by a hot
   caller whose output is independently cross-validated (the incremental
   engine, whose analyses the property suites and the fuzz [engines]
   oracle compare byte-for-byte against fresh ones). *)
let of_parts ?(check = true) circuit adj ~on_qubit =
  let { pred_start; pred_ids; succ_start; succ_ids } = adj in
  let fail fmt = Format.kasprintf invalid_arg ("Dag.of_parts: " ^^ fmt) in
  let n = Array.length circuit.Circuit.gates in
  let check_lengths what start ids =
    if Array.length start <> n + 1 then
      fail "%s has %d offsets for %d gates" what (Array.length start) n;
    if start.(0) <> 0 || start.(n) <> Array.length ids then
      fail "%s offsets do not span its %d ids" what (Array.length ids)
  in
  check_lengths "preds" pred_start pred_ids;
  check_lengths "succs" succ_start succ_ids;
  let expected_wires = max 1 circuit.Circuit.num_qubits in
  if Array.length on_qubit <> expected_wires then
    fail "on_qubit has %d wires for %d qubits" (Array.length on_qubit)
      circuit.Circuit.num_qubits;
  let t = { circuit; adj; on_qubit } in
  if not check then t
  else begin
  for i = 0 to n - 1 do
    if pred_start.(i) > pred_start.(i + 1) || succ_start.(i) > succ_start.(i + 1)
    then fail "offsets of gate %d decrease" i
  done;
  let mem j ids lo hi =
    let rec go e = e < hi && (ids.(e) = j || go (e + 1)) in
    go lo
  in
  (* Allocation-free: adjacency slices are short (wire degree), so a
     linear scan beats building any set. *)
  let check_adj what forward start ids =
    for i = 0 to n - 1 do
      for e = start.(i) to start.(i + 1) - 1 do
        let j = ids.(e) in
        if j < 0 || j >= n then
          fail "%s.(%d) mentions dangling gate %d" what i j;
        if mem j ids (e + 1) start.(i + 1) then
          fail "%s.(%d) lists gate %d twice" what i j;
        (* Gates are stored in execution order, so every dependence must
           point forward — a backward edge breaks [topo_order]. *)
        if forward && j <= i then
          fail "%s.(%d) edge from %d is not topological" what i j;
        if (not forward) && j >= i then
          fail "%s.(%d) edge from %d is not topological" what i j
      done
    done
  in
  check_adj "preds" false pred_start pred_ids;
  check_adj "succs" true succ_start succ_ids;
  let check_mirror what start ids other_what ostart oids =
    for i = 0 to n - 1 do
      for e = start.(i) to start.(i + 1) - 1 do
        let j = ids.(e) in
        if not (mem i oids ostart.(j) ostart.(j + 1)) then
          fail "%s.(%d) lists %d but %s.(%d) does not mirror it" what i j
            other_what j
      done
    done
  in
  check_mirror "preds" pred_start pred_ids "succs" succ_start succ_ids;
  check_mirror "succs" succ_start succ_ids "preds" pred_start pred_ids;
  (* Non-allocating [Gate.qubits] membership — on the same hot path. *)
  let acts_on q = function
    | Gate.One_q (_, a) | Gate.Reset a | Gate.Measure (a, _) | Gate.If_x (_, a)
      ->
      a = q
    | Gate.Cx (a, b) | Gate.Cz (a, b) | Gate.Rzz (_, a, b) | Gate.Swap (a, b)
      ->
      a = q || b = q
    | Gate.Barrier _ -> false
  in
  Array.iteri
    (fun q ids ->
      let last = ref (-1) in
      List.iter
        (fun g ->
          if g < 0 || g >= n then fail "on_qubit.(%d) mentions dangling gate %d" q g;
          if g <= !last then
            fail "on_qubit.(%d) is not in execution order at gate %d" q g;
          last := g;
          let k = circuit.Circuit.gates.(g).Gate.kind in
          if Gate.is_barrier k then
            fail "on_qubit.(%d) lists barrier %d" q g;
          if not (acts_on q k) then
            fail "on_qubit.(%d) lists gate %d which does not act on it" q g)
        ids)
    on_qubit;
  t
  end

let adjacency t = t.adj
let num_nodes t = Array.length t.adj.pred_start - 1
let in_degree t i = t.adj.pred_start.(i + 1) - t.adj.pred_start.(i)

let slice ids lo hi =
  let rec go e acc = if e < lo then acc else go (e - 1) (ids.(e) :: acc) in
  go (hi - 1) []

let preds t i = slice t.adj.pred_ids t.adj.pred_start.(i) t.adj.pred_start.(i + 1)
let succs t i = slice t.adj.succ_ids t.adj.succ_start.(i) t.adj.succ_start.(i + 1)

let iter_succs f t i =
  for e = t.adj.succ_start.(i) to t.adj.succ_start.(i + 1) - 1 do
    f t.adj.succ_ids.(e)
  done

let topo_order t = List.init (num_nodes t) Fun.id

let frontier t = List.filter (fun i -> in_degree t i = 0) (topo_order t)

(* Earliest finish per node under [weight], and the largest of them. *)
let finish_times ~weight t =
  let { pred_start; pred_ids; _ } = t.adj in
  let n = num_nodes t in
  let finish = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    let start = ref 0 in
    for e = pred_start.(i) to pred_start.(i + 1) - 1 do
      if finish.(pred_ids.(e)) > !start then start := finish.(pred_ids.(e))
    done;
    finish.(i) <- !start + weight i;
    if finish.(i) > !total then total := finish.(i)
  done;
  (finish, !total)

let longest_path ~weight t = snd (finish_times ~weight t)

let critical_nodes ~weight t =
  let { pred_start; pred_ids; _ } = t.adj in
  let n = num_nodes t in
  let finish, total = finish_times ~weight t in
  (* Latest finish allowed without stretching the schedule. *)
  let late = Array.make n max_int in
  for i = n - 1 downto 0 do
    if late.(i) = max_int then late.(i) <- total;
    let start = late.(i) - weight i in
    for e = pred_start.(i) to pred_start.(i + 1) - 1 do
      let p = pred_ids.(e) in
      if start < late.(p) then late.(p) <- start
    done
  done;
  Array.init n (fun i -> finish.(i) = late.(i))

let gates_on_qubit t q = t.on_qubit.(q)
