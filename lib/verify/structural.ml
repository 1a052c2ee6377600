type pair = { src : int; dst : int }

(* ---------------------------------------------------- well-formedness *)

(* Operands are read by matching on the gate kind, so a gate costs no
   list. Within a gate the checks run in the order qubits, clbits, equal
   wires, clbit reads; only the first failure is reported. *)
let check_wellformed (c : Quantum.Circuit.t) =
  let written = Array.make (max 1 c.num_clbits) false in
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if Option.is_none !bad then bad := Some s) fmt in
  let qubit i q =
    if q < 0 || q >= c.num_qubits then
      fail "gate %d: qubit %d out of range (%d wires)" i q c.num_qubits
  in
  let clbit i cb =
    if cb < 0 || cb >= c.num_clbits then
      fail "gate %d: clbit %d out of range (%d clbits)" i cb c.num_clbits
  in
  let equal_wires i a b =
    if a = b then fail "gate %d: two-qubit gate on equal wires q%d" i a
  in
  let rec barrier i = function
    | [] -> ()
    | q :: rest ->
      qubit i q;
      barrier i rest
  in
  for i = 0 to Array.length c.gates - 1 do
    match c.gates.(i).Quantum.Gate.kind with
    | Quantum.Gate.One_q (_, q) | Quantum.Gate.Reset q -> qubit i q
    | Quantum.Gate.Cx (a, b)
    | Quantum.Gate.Cz (a, b)
    | Quantum.Gate.Rzz (_, a, b)
    | Quantum.Gate.Swap (a, b) ->
      qubit i a;
      qubit i b;
      equal_wires i a b
    | Quantum.Gate.Measure (q, cb) ->
      qubit i q;
      clbit i cb;
      if cb >= 0 && cb < c.num_clbits then written.(cb) <- true
    | Quantum.Gate.If_x (cb, q) ->
      qubit i q;
      clbit i cb;
      if cb >= 0 && cb < c.num_clbits && not written.(cb) then
        fail
          "gate %d: conditional X on q%d reads clbit %d before any \
           measurement writes it (measure/init order swapped?)"
          i q cb
    | Quantum.Gate.Barrier qs -> (
      barrier i qs;
      match qs with [ a; b ] -> equal_wires i a b | _ -> ())
  done;
  match !bad with None -> Verdict.Equivalent | Some s -> Verdict.violation s

(* ------------------------------------------------------ regular pairs *)

(* The checker re-derives the transform itself and steps from pair k to
   pair k+1 on flat arrays, sized once for the longest circuit of the
   sequence (each pair adds a measure and a conditional X):

   - the circuit is a kind array; node [n] past its [n] gates is the
     dummy reset node that pair k splices between src's gates and dst's;
   - its dependence DAG is CSR successor arrays, built by two scans in
     gate order over each gate's wires — qubit q is wire q, clbit c is
     wire [num_qubits + c] — with the dummy's edges added: an edge joins
     consecutive gates on a wire, barriers included, so every edge
     between gates points forward;
   - [mark] holds per gate: 1 it is a non-barrier gate on src, 2 on dst,
     4 it descends from a gate on dst;
   - the transform is Kahn's emission with least-id priority, on an int
     heap; the dummy emits a measure of src onto a fresh scratch clbit
     and a conditional X driven by it (the compiler's reuse of an
     existing final measurement does not change the dependence
     structure the conditions read), and dst's gates move onto src.

   Nothing here calls into the compiler's own [Reuse] analysis, so a bug
   in the compiler's condition checking cannot hide itself. *)

let wire_flag (q : int) ~src ~dst =
  (if q = src then 1 else 0) lor if q = dst then 2 else 0

let check_sequence ~(original : Quantum.Circuit.t) pairs =
  let nq = original.num_qubits in
  let npairs = List.length pairs in
  let cap = Array.length original.gates + (2 * npairs) + 1 in
  let kinds = ref (Array.make cap (Quantum.Gate.Barrier []))
  and spare = ref (Array.make cap (Quantum.Gate.Barrier [])) in
  Array.iteri (fun i g -> !kinds.(i) <- g.Quantum.Gate.kind) original.gates;
  let n = ref (Array.length original.gates)
  and nc = ref original.num_clbits in
  let mark = Bytes.make cap '\000' in
  let flags v = Char.code (Bytes.unsafe_get mark v) in
  let flag v f = Bytes.unsafe_set mark v (Char.unsafe_chr (flags v lor f)) in
  let indeg = Array.make cap 0
  and succ_start = Array.make (cap + 1) 0
  and fill = Array.make cap 0
  and succ_ids = ref (Array.make (2 * cap) 0)
  and heap = Array.make cap 0
  and last = Array.make (nq + original.num_clbits + npairs) (-1) in
  (* One edge per wire from its previous gate to gate [i]: counted into
     [fill] on the first scan, stored on the second. *)
  let storing = ref false in
  let dep i w =
    let p = last.(w) in
    if p >= 0 && p <> i then
      if !storing then begin
        !succ_ids.(fill.(p)) <- i;
        fill.(p) <- fill.(p) + 1;
        indeg.(i) <- indeg.(i) + 1
      end
      else fill.(p) <- fill.(p) + 1;
    last.(w) <- i
  in
  let rec barrier_deps i = function
    | [] -> ()
    | q :: rest ->
      dep i q;
      barrier_deps i rest
  in
  let deps i =
    match !kinds.(i) with
    | Quantum.Gate.One_q (_, q) | Quantum.Gate.Reset q -> dep i q
    | Quantum.Gate.Cx (a, b)
    | Quantum.Gate.Cz (a, b)
    | Quantum.Gate.Rzz (_, a, b)
    | Quantum.Gate.Swap (a, b) ->
      dep i a;
      dep i b
    | Quantum.Gate.Measure (q, cb) | Quantum.Gate.If_x (cb, q) ->
      dep i q;
      dep i (nq + cb)
    | Quantum.Gate.Barrier qs -> barrier_deps i qs
  in
  let scan () =
    Array.fill last 0 (Array.length last) (-1);
    for i = 0 to !n - 1 do
      deps i
    done
  in
  (* Gate [i]'s wire flags for the pair: 1 on src, 2 on dst. *)
  let on_wire i src dst =
    match !kinds.(i) with
    | Quantum.Gate.One_q (_, q)
    | Quantum.Gate.Reset q
    | Quantum.Gate.Measure (q, _)
    | Quantum.Gate.If_x (_, q) ->
      wire_flag q ~src ~dst
    | Quantum.Gate.Cx (a, b)
    | Quantum.Gate.Cz (a, b)
    | Quantum.Gate.Rzz (_, a, b)
    | Quantum.Gate.Swap (a, b) ->
      wire_flag a ~src ~dst lor wire_flag b ~src ~dst
    | Quantum.Gate.Barrier _ -> 0
  in
  let size = ref 0 in
  let push v =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > v do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- v
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let v = heap.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < v then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- v;
    top
  in
  (* The DAG of the current circuit plus the dummy node [!n], in CSR. *)
  let build () =
    let d = !n in
    Array.fill fill 0 (d + 1) 0;
    Array.fill indeg 0 (d + 1) 0;
    storing := false;
    scan ();
    for g = 0 to d - 1 do
      if flags g land 1 <> 0 then fill.(g) <- fill.(g) + 1;
      if flags g land 2 <> 0 then fill.(d) <- fill.(d) + 1
    done;
    succ_start.(0) <- 0;
    for v = 0 to d do
      succ_start.(v + 1) <- succ_start.(v) + fill.(v);
      fill.(v) <- succ_start.(v)
    done;
    if succ_start.(d + 1) > Array.length !succ_ids then
      succ_ids := Array.make (2 * succ_start.(d + 1)) 0;
    storing := true;
    scan ();
    for g = 0 to d - 1 do
      if flags g land 1 <> 0 then begin
        !succ_ids.(fill.(g)) <- d;
        fill.(g) <- fill.(g) + 1;
        indeg.(d) <- indeg.(d) + 1
      end;
      if flags g land 2 <> 0 then begin
        !succ_ids.(fill.(d)) <- g;
        fill.(d) <- fill.(d) + 1;
        indeg.(g) <- indeg.(g) + 1
      end
    done
  in
  (* Condition 2 by one forward walk: gates are in execution order, so a
     scan in gate order marks every descendant of dst's gates once their
     predecessors are marked; then no gate on src may be marked. The
     dummy, past the last gate, is never scanned. *)
  let depends () =
    let d = !n in
    let hit = ref false in
    for g = 0 to d - 1 do
      if flags g land 2 <> 0 then flag g 4;
      if flags g land 4 <> 0 then
        for e = succ_start.(g) to succ_start.(g + 1) - 1 do
          flag !succ_ids.(e) 4
        done;
      if flags g land 5 = 5 then hit := true
    done;
    !hit
  in
  (* Kahn's emission; false when a cycle leaves nodes unemitted. *)
  let apply { src; dst } =
    let d = !n in
    let out = !spare in
    let scratch = !nc in
    let rename q = if q = dst then src else q in
    for v = 0 to d do
      if indeg.(v) = 0 then push v
    done;
    let len = ref 0 and emitted = ref 0 in
    while !size > 0 do
      let v = pop () in
      incr emitted;
      if v = d then begin
        out.(!len) <- Quantum.Gate.Measure (src, scratch);
        out.(!len + 1) <- Quantum.Gate.If_x (scratch, src);
        len := !len + 2
      end
      else begin
        out.(!len) <- Quantum.Gate.map_qubits rename !kinds.(v);
        incr len
      end;
      for e = succ_start.(v) to succ_start.(v + 1) - 1 do
        let w = !succ_ids.(e) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then push w
      done
    done;
    if !emitted <> d + 1 then false
    else begin
      spare := !kinds;
      kinds := out;
      n := !len;
      nc := scratch + 1;
      true
    end
  in
  let rec go k = function
    | [] -> Verdict.Equivalent
    | ({ src; dst } as p) :: rest ->
      if src = dst || src < 0 || dst < 0 || src >= nq || dst >= nq then
        Verdict.violationf "pair %d (q%d -> q%d): operands invalid" k src dst
      else begin
        let on_src = ref 0 and on_dst = ref 0 and coupled = ref false in
        Bytes.fill mark 0 cap '\000';
        for g = 0 to !n - 1 do
          let f = on_wire g src dst in
          if f land 1 <> 0 then incr on_src;
          if f land 2 <> 0 then incr on_dst;
          if f = 3 then coupled := true;
          flag g f
        done;
        if !on_src = 0 || !on_dst = 0 then
          Verdict.violationf "pair %d (q%d -> q%d): a wire carries no gate" k
            src dst
        else if
          (* Barriers are scheduling directives, not interactions: a
             barrier spanning both wires constrains ordering (checked by
             Condition 2 through the DAG below) but does not couple
             them. *)
          !coupled
        then
          Verdict.violationf
            "pair %d (q%d -> q%d): Condition 1 fails — a gate couples both \
             wires"
            k src dst
        else begin
          build ();
          if depends () then
            Verdict.violationf
              "pair %d (q%d -> q%d): Condition 2 fails — a gate on q%d \
               transitively depends on a gate on q%d"
              k src dst src dst
          else if apply p then go (k + 1) rest
          else
            Verdict.violationf
              "pair %d (q%d -> q%d): applying the reuse closes a dependence \
               cycle"
              k src dst
        end
      end
  in
  go 0 pairs

let check_pairs ~original pairs =
  match pairs with
  | [] -> Verdict.Equivalent
  | _ -> check_sequence ~original pairs

(* --------------------------------------------------- commutable pairs *)

let check_commutable_pairs ~graph pairs =
  let n = Galg.Graph.order graph in
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if Option.is_none !bad then bad := Some s) fmt in
  let seen_src = Array.make (max 1 n) false in
  let seen_dst = Array.make (max 1 n) false in
  List.iteri
    (fun k { src; dst } ->
      if src = dst || src < 0 || dst < 0 || src >= n || dst >= n then
        fail "pair %d (v%d -> v%d): operands invalid" k src dst
      else begin
        if seen_src.(src) then fail "pair %d: v%d is reused as src twice" k src;
        if seen_dst.(dst) then fail "pair %d: v%d is hosted as dst twice" k dst;
        if src < n then seen_src.(src) <- true;
        if dst < n then seen_dst.(dst) <- true
      end)
    pairs;
  (match !bad with
   | Some _ -> ()
   | None ->
     (* Chains: follow src -> dst successor links from each head. Every
        chain's vertex set must be independent in the problem graph. *)
     let next = Array.make (max 1 n) (-1) in
     List.iter (fun { src; dst } -> next.(src) <- dst) pairs;
     for head = 0 to n - 1 do
       if not seen_dst.(head) then begin
         let members = ref [] in
         let v = ref head in
         let steps = ref 0 in
         while !v >= 0 && !steps <= n do
           members := !v :: !members;
           v := next.(!v);
           incr steps
         done;
         if !steps > n then fail "chain from v%d never terminates (cycle)" head;
         let m = !members in
         List.iter
           (fun a ->
             List.iter
               (fun b ->
                 if a < b && Galg.Graph.has_edge graph a b then
                   fail
                     "chain through v%d hosts interacting vertices v%d and v%d"
                     head a b)
               m)
           m
       end
     done;
     (* Any vertex still reachable only through a cycle (never a head)? *)
     let covered = Array.make (max 1 n) false in
     for head = 0 to n - 1 do
       if not seen_dst.(head) then begin
         let v = ref head and steps = ref 0 in
         while !v >= 0 && !steps <= n do
           covered.(!v) <- true;
           v := next.(!v);
           incr steps
         done
       end
     done;
     List.iteri
       (fun k { src; dst } ->
         if not (covered.(src) && covered.(dst)) then
           fail "pair %d (v%d -> v%d): part of a reuse cycle" k src dst)
       pairs;
     (* Pair precedence digraph must be acyclic: p1 -> p2 when p1.dst
        equals or interacts with p2.src. *)
     (match !bad with
      | Some _ -> ()
      | None ->
        let ps = Array.of_list pairs in
        let m = Array.length ps in
        let adj i j =
          i <> j
          && (ps.(i).dst = ps.(j).src
             || Galg.Graph.has_edge graph ps.(i).dst ps.(j).src)
        in
        (* DFS cycle detection: 0 = white, 1 = grey, 2 = black. *)
        let color = Array.make m 0 in
        let rec dfs i =
          color.(i) <- 1;
          for j = 0 to m - 1 do
            if adj i j then
              if color.(j) = 1 then
                fail
                  "pair digraph has a cycle through (v%d -> v%d): the claimed \
                   order cannot be scheduled"
                  ps.(i).src ps.(i).dst
              else if color.(j) = 0 then dfs j
          done;
          color.(i) <- 2
        in
        for i = 0 to m - 1 do
          if color.(i) = 0 then dfs i
        done));
  match !bad with None -> Verdict.Equivalent | Some s -> Verdict.violation s

(* ------------------------------------------------------------ device *)

let check_coupling device (c : Quantum.Circuit.t) =
  let nd = Hardware.Device.num_qubits device in
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if Option.is_none !bad then bad := Some s) fmt in
  if c.num_qubits > nd then
    fail "circuit spans %d wires but the device has %d qubits" c.num_qubits nd;
  for i = 0 to Array.length c.gates - 1 do
    match c.gates.(i).Quantum.Gate.kind with
    | Quantum.Gate.Cx (a, b)
    | Quantum.Gate.Cz (a, b)
    | Quantum.Gate.Rzz (_, a, b)
    | Quantum.Gate.Swap (a, b) ->
      if a >= nd || b >= nd then
        fail "gate %d: wire beyond the device (q%d, q%d)" i a b
      else if not (Hardware.Device.adjacent device a b) then
        fail "gate %d: two-qubit gate on uncoupled qubits q%d and q%d" i a b
    | Quantum.Gate.One_q _ | Quantum.Gate.Measure _ | Quantum.Gate.Reset _
    | Quantum.Gate.If_x _ | Quantum.Gate.Barrier _ ->
      ()
  done;
  match !bad with None -> Verdict.Equivalent | Some s -> Verdict.violation s

(* -------------------------------------------------------- accounting *)

let measure_counts (c : Quantum.Circuit.t) upto =
  let counts = Array.make (max 1 upto) 0 in
  Array.iter
    (fun (g : Quantum.Gate.t) ->
      match g.Quantum.Gate.kind with
      | Quantum.Gate.Measure (_, cb) when cb < upto -> counts.(cb) <- counts.(cb) + 1
      | _ -> ())
    c.gates;
  counts

let check_accounting ~(logical : Quantum.Circuit.t)
    ~(physical : Quantum.Circuit.t) =
  if physical.num_clbits < logical.num_clbits then
    Verdict.violationf
      "physical circuit has %d clbits but the logical program needs %d"
      physical.num_clbits logical.num_clbits
  else begin
    let want = measure_counts logical logical.num_clbits in
    let got = measure_counts physical logical.num_clbits in
    let bad = ref None in
    Array.iteri
      (fun cb w ->
        if Option.is_none !bad && got.(cb) <> w then
          bad :=
            Some
              (Printf.sprintf
                 "program clbit %d is written %d time(s) logically but %d \
                  time(s) physically"
                 cb w got.(cb)))
      want;
    match !bad with None -> Verdict.Equivalent | Some s -> Verdict.violation s
  end

let check_artifact device ~logical ~physical =
  Verdict.combine
    [
      check_wellformed logical;
      check_wellformed physical;
      check_coupling device physical;
      check_accounting ~logical ~physical;
    ]
