(* Adjacency in compressed form: the predecessors of node [i] are
   [pred_ids.(pred_start.(i)) .. pred_ids.(pred_start.(i + 1) - 1)], and
   likewise for successors. Two flat int arrays per direction instead of
   one list cell per edge: the router, the reuse engine and the verifier
   walk them in place, and the reuse engine shares one root's arrays
   across every search node it derives. *)
type t = {
  pred_start : int array;
  pred_ids : int array;
  succ_start : int array;
  succ_ids : int array;
}

type scratch = {
  last : int Scratch.t;
  pred_start : int Scratch.t;
  pred_ids : int Scratch.t;
  succ_start : int Scratch.t;
  succ_ids : int Scratch.t;
}

let scratch () =
  let ints init = Scratch.make init in
  {
    last = ints (-1);
    pred_start = ints 0;
    pred_ids = ints 0;
    succ_start = ints 0;
    succ_ids = ints 0;
  }

(* Each qubit or clbit operand adds at most one dependence, so the
   operand count bounds the edge count. *)
let operand_count (c : Circuit.t) =
  let total = ref 0 in
  for i = 0 to Array.length c.gates - 1 do
    total :=
      !total
      +
      match c.gates.(i).Gate.kind with
      | Gate.One_q _ | Gate.Reset _ -> 1
      | Gate.Cx _ | Gate.Cz _ | Gate.Rzz _ | Gate.Swap _ | Gate.Measure _
      | Gate.If_x _ ->
        2
      | Gate.Barrier qs -> List.length qs
  done;
  !total

(* Gate [i] on wire [w], whose last gate so far is [last.(w)], appends
   that gate to [i]'s predecessor slice (filled up to [len]) unless it
   is already there, and returns the slice's new end. *)
let depend last pred_start pred_ids len w i =
  let src = last.(w) in
  last.(w) <- i;
  if src < 0 || src = i then len
  else begin
    let e = ref pred_start.(i) in
    while !e < len && pred_ids.(!e) <> src do
      incr e
    done;
    if !e < len then len
    else begin
      pred_ids.(len) <- src;
      len + 1
    end
  end

let rec depend_all last pred_start pred_ids len qs i =
  match qs with
  | [] -> len
  | q :: qs ->
    let len = depend last pred_start pred_ids len q i in
    depend_all last pred_start pred_ids len qs i

(* Predecessors are appended gate by gate into one buffer of a slot per
   operand (a gate's dependences all point at earlier gates, so gate
   [i]'s slice is complete once [i] is read), deduplicated within the
   slice: qubit wires first, in operand order, then classical bits.
   Successor slices are filled from their ends in gate order, so each
   lists its successors latest first: the router and SR-CaQR visit
   successors in that order. Every buffer element read is written
   first. *)
let build_in s (c : Circuit.t) =
  let n = Array.length c.gates in
  (* The last gate on qubit [q] is [last.(q)], on clbit [cb]
     [last.(nq + cb)]. *)
  let nq = c.num_qubits in
  let last = Scratch.get s.last (nq + c.num_clbits) in
  Array.fill last 0 (nq + c.num_clbits) (-1);
  let pred_start = Scratch.get s.pred_start (n + 1) in
  let pred_ids = Scratch.get s.pred_ids (operand_count c) in
  let len = ref 0 in
  for i = 0 to n - 1 do
    pred_start.(i) <- !len;
    (* A barrier orders every wire it spans like any gate; callers
       that weight nodes give it zero cost. *)
    len :=
      match c.gates.(i).Gate.kind with
      | Gate.One_q (_, q) | Gate.Reset q -> depend last pred_start pred_ids !len q i
      | Gate.Cx (a, b) | Gate.Cz (a, b) | Gate.Rzz (_, a, b) | Gate.Swap (a, b) ->
        let len = depend last pred_start pred_ids !len a i in
        depend last pred_start pred_ids len b i
      | Gate.Measure (q, cb) | Gate.If_x (cb, q) ->
        let len = depend last pred_start pred_ids !len q i in
        depend last pred_start pred_ids len (nq + cb) i
      | Gate.Barrier qs -> depend_all last pred_start pred_ids !len qs i
  done;
  pred_start.(n) <- !len;
  (* [succ_start.(p)] counts up to the end of [p]'s slice, then back
     down to its start as the slice fills. *)
  let succ_start = Scratch.get s.succ_start (n + 1) in
  Array.fill succ_start 0 (n + 1) 0;
  for e = 0 to !len - 1 do
    let p = pred_ids.(e) in
    succ_start.(p) <- succ_start.(p) + 1
  done;
  for i = 1 to n - 1 do
    succ_start.(i) <- succ_start.(i) + succ_start.(i - 1)
  done;
  succ_start.(n) <- !len;
  let succ_ids = Scratch.get s.succ_ids !len in
  for i = 0 to n - 1 do
    for e = pred_start.(i) to pred_start.(i + 1) - 1 do
      let p = pred_ids.(e) in
      succ_start.(p) <- succ_start.(p) - 1;
      succ_ids.(succ_start.(p)) <- i
    done
  done;
  { pred_start; pred_ids; succ_start; succ_ids }

(* Fresh buffers are exactly as long as asked for save the predecessor
   buffer, which is cut to the edges. *)
let build c =
  let t = build_in (scratch ()) c in
  let edges = t.pred_start.(Array.length c.Circuit.gates) in
  if Array.length t.pred_ids = edges then t
  else { t with pred_ids = Array.sub t.pred_ids 0 edges }

let num_nodes (t : t) = Array.length t.pred_start - 1
let in_degree (t : t) i = t.pred_start.(i + 1) - t.pred_start.(i)

let iter_succs f (t : t) i =
  for e = t.succ_start.(i) to t.succ_start.(i + 1) - 1 do
    f t.succ_ids.(e)
  done

let critical_nodes ~weight (t : t) =
  let ({ pred_start; pred_ids; _ } : t) = t in
  let n = num_nodes t in
  (* Earliest finish per node under [weight], and the largest of them. *)
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
  (* Latest finish allowed without stretching the schedule. *)
  let late = Array.make n max_int in
  for i = n - 1 downto 0 do
    if late.(i) = max_int then late.(i) <- !total;
    let start = late.(i) - weight i in
    for e = pred_start.(i) to pred_start.(i + 1) - 1 do
      let p = pred_ids.(e) in
      if start < late.(p) then late.(p) <- start
    done
  done;
  Array.init n (fun i -> finish.(i) = late.(i))
