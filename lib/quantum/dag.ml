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

(* Predecessors are appended gate by gate into one growing buffer (a
   gate's dependences all point at earlier gates, so gate [i]'s slice is
   complete once [i] is read), deduplicated within the slice: qubit wires
   first, in operand order, then classical bits. Successor slices are
   filled from the last gate down, so each lists its successors latest
   first: the router and SR-CaQR visit successors in that order. *)
let build (c : Circuit.t) =
  let n = Array.length c.gates in
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
  let on_qubit q i =
    add_dep last_q.(q) i;
    last_q.(q) <- i
  in
  let on_clbit cb i =
    add_dep last_c.(cb) i;
    last_c.(cb) <- i
  in
  for i = 0 to n - 1 do
    pred_start.(i) <- !len;
    (* A barrier orders every wire it spans like any gate; callers
       that weight nodes give it zero cost. *)
    match c.gates.(i).Gate.kind with
    | Gate.One_q (_, q) | Gate.Reset q -> on_qubit q i
    | Gate.Cx (a, b) | Gate.Cz (a, b) | Gate.Rzz (_, a, b) | Gate.Swap (a, b) ->
      on_qubit a i;
      on_qubit b i
    | Gate.Measure (q, cb) | Gate.If_x (cb, q) ->
      on_qubit q i;
      on_clbit cb i
    | Gate.Barrier qs ->
      List.iter (fun q -> on_qubit q i) qs
  done;
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
  { pred_start; pred_ids; succ_start; succ_ids }

let num_nodes t = Array.length t.pred_start - 1
let in_degree t i = t.pred_start.(i + 1) - t.pred_start.(i)

let iter_succs f t i =
  for e = t.succ_start.(i) to t.succ_start.(i + 1) - 1 do
    f t.succ_ids.(e)
  done

let critical_nodes ~weight t =
  let { pred_start; pred_ids; _ } = t in
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
