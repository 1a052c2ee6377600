(* Reference static verifier: the list-based implementation that
   [Verify.Structural] replaced, kept verbatim as a test oracle (only
   this header and the [open] are new). It rebuilds a [Quantum.Dag], list
   successor arrays and an [Int] set Kahn for every pair; the flat
   verifier must return the same verdict and message on every input. *)

open Verify

type pair = { src : int; dst : int }

(* ---------------------------------------------------- well-formedness *)

let check_wellformed (c : Quantum.Circuit.t) =
  let written = Array.make (max 1 c.num_clbits) false in
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !bad = None then bad := Some s) fmt in
  Array.iteri
    (fun i (g : Quantum.Gate.t) ->
      let kind = g.Quantum.Gate.kind in
      List.iter
        (fun q ->
          if q < 0 || q >= c.num_qubits then
            fail "gate %d: qubit %d out of range (%d wires)" i q c.num_qubits)
        (Quantum.Gate.qubits kind);
      List.iter
        (fun cb ->
          if cb < 0 || cb >= c.num_clbits then
            fail "gate %d: clbit %d out of range (%d clbits)" i cb c.num_clbits)
        (Quantum.Gate.clbits kind);
      (match Quantum.Gate.qubits kind with
       | [ a; b ] when a = b -> fail "gate %d: two-qubit gate on equal wires q%d" i a
       | _ -> ());
      match kind with
      | Quantum.Gate.Measure (_, cb) ->
        if cb >= 0 && cb < c.num_clbits then written.(cb) <- true
      | Quantum.Gate.If_x (cb, q) ->
        if cb >= 0 && cb < c.num_clbits && not written.(cb) then
          fail
            "gate %d: conditional X on q%d reads clbit %d before any \
             measurement writes it (measure/init order swapped?)"
            i q cb
      | _ -> ())
    c.gates;
  match !bad with None -> Verdict.Equivalent | Some s -> Verdict.violation s

(* ------------------------------------------------------ regular pairs *)

(* The non-barrier gates on wires [src] and [dst], in execution order,
   from one scan of the gate array. *)
let wire_gates (c : Quantum.Circuit.t) src dst =
  let on_src = ref [] and on_dst = ref [] in
  for i = Array.length c.gates - 1 downto 0 do
    let kind = c.gates.(i).Quantum.Gate.kind in
    if not (Quantum.Gate.is_barrier kind) then begin
      let qs = Quantum.Gate.qubits kind in
      if List.mem src qs then on_src := i :: !on_src;
      if List.mem dst qs then on_dst := i :: !on_dst
    end
  done;
  (!on_src, !on_dst)

(* Independent re-derivation of the transform, used only to step the
   condition checks from pair k to pair k+1. Kahn emission with a dummy
   reset node between src's gates and dst's gates; always allocates a
   fresh scratch clbit (the compiler's existing-clbit optimization does
   not change the dependence structure the conditions read). *)
let apply_pair (c : Quantum.Circuit.t) dag (on_src, on_dst) { src; dst } =
  let n = Quantum.Dag.num_nodes dag in
  let dummy = n in
  let succs = Array.make (n + 1) [] in
  let indeg = Array.make (n + 1) 0 in
  let add_edge u v =
    succs.(u) <- v :: succs.(u);
    indeg.(v) <- indeg.(v) + 1
  in
  for i = 0 to n - 1 do
    Quantum.Dag.iter_succs (add_edge i) dag i
  done;
  List.iter (fun g -> add_edge g dummy) on_src;
  List.iter (fun g -> add_edge dummy g) on_dst;
  let scratch = c.num_clbits in
  let rename q = if q = dst then src else q in
  let module Iset = Set.Make (Int) in
  let ready = ref Iset.empty in
  for i = 0 to n do
    if indeg.(i) = 0 then ready := Iset.add i !ready
  done;
  let rev = ref [] in
  let emitted = ref 0 in
  while not (Iset.is_empty !ready) do
    let i = Iset.min_elt !ready in
    ready := Iset.remove i !ready;
    incr emitted;
    if i = dummy then
      rev :=
        Quantum.Gate.If_x (scratch, src)
        :: Quantum.Gate.Measure (src, scratch)
        :: !rev
    else
      rev :=
        Quantum.Gate.map_qubits rename c.gates.(i).Quantum.Gate.kind :: !rev;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then ready := Iset.add j !ready)
      succs.(i)
  done;
  if !emitted <> n + 1 then None
  else
    Some
      (Quantum.Circuit.of_kinds ~num_qubits:c.num_qubits
         ~num_clbits:(c.num_clbits + 1) (List.rev !rev))

(* Condition 2 by one forward walk: gates are stored in execution order,
   so a scan in gate order marks every descendant of dst's gates once
   their predecessors are marked; then no gate on src may be marked. *)
let depends_on dag ~on_src ~on_dst =
  let below = Bytes.make (Quantum.Dag.num_nodes dag) '\000' in
  let mark g = Bytes.set below g '\001' in
  let marked g = Bytes.get below g <> '\000' in
  List.iter mark on_dst;
  for i = 0 to Quantum.Dag.num_nodes dag - 1 do
    if marked i then Quantum.Dag.iter_succs mark dag i
  done;
  List.exists marked on_src

(* Two ascending gate lists share a gate. *)
let rec shares_gate a b =
  match (a, b) with
  | x :: a', y :: b' -> x = y || if x < y then shares_gate a' b else shares_gate a b'
  | _ -> false

let check_one_pair (c : Quantum.Circuit.t) dag (on_src, on_dst) k { src; dst } =
  if src = dst || src < 0 || dst < 0 || src >= c.num_qubits || dst >= c.num_qubits
  then Verdict.violationf "pair %d (q%d -> q%d): operands invalid" k src dst
  else if on_src = [] || on_dst = [] then
    Verdict.violationf "pair %d (q%d -> q%d): a wire carries no gate" k src dst
  else if
    (* Barriers are scheduling directives, not interactions: a barrier
       spanning both wires constrains ordering (checked by Condition 2
       through the DAG below) but does not couple them. *)
    shares_gate on_src on_dst
  then
    Verdict.violationf
      "pair %d (q%d -> q%d): Condition 1 fails — a gate couples both wires" k
      src dst
  else if depends_on dag ~on_src ~on_dst then
    Verdict.violationf
      "pair %d (q%d -> q%d): Condition 2 fails — a gate on q%d \
       transitively depends on a gate on q%d"
      k src dst src dst
  else Verdict.Equivalent

let check_pairs ~(original : Quantum.Circuit.t) pairs =
  let rec go c k = function
    | [] -> Verdict.Equivalent
    | p :: rest ->
      let dag = Quantum.Dag.build c in
      let wires = wire_gates c p.src p.dst in
      (match check_one_pair c dag wires k p with
       | Verdict.Equivalent ->
         (match apply_pair c dag wires p with
          | Some c' -> go c' (k + 1) rest
          | None ->
            Verdict.violationf
              "pair %d (q%d -> q%d): applying the reuse closes a dependence \
               cycle"
              k p.src p.dst)
       | v -> v)
  in
  go original 0 pairs

(* --------------------------------------------------- commutable pairs *)

let check_commutable_pairs ~graph pairs =
  let n = Galg.Graph.order graph in
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !bad = None then bad := Some s) fmt in
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
  let fail fmt = Printf.ksprintf (fun s -> if !bad = None then bad := Some s) fmt in
  if c.num_qubits > nd then
    fail "circuit spans %d wires but the device has %d qubits" c.num_qubits nd;
  Array.iteri
    (fun i (g : Quantum.Gate.t) ->
      let kind = g.Quantum.Gate.kind in
      if Quantum.Gate.is_two_q kind then
        match Quantum.Gate.qubits kind with
        | [ a; b ] ->
          if a >= nd || b >= nd then
            fail "gate %d: wire beyond the device (q%d, q%d)" i a b
          else if not (Hardware.Device.adjacent device a b) then
            fail "gate %d: two-qubit gate on uncoupled qubits q%d and q%d" i a b
        | _ -> ())
    c.gates;
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
        if !bad = None && got.(cb) <> w then
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
