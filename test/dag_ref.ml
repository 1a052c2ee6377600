(* Reference DAG construction: the implementation that
   [Quantum.Dag.build] replaced, kept verbatim as a test oracle. It walks
   [Gate.qubits]/[Gate.clbits] lists with a closure per gate; the build
   that matches on the kind must return the same four arrays. *)

(* Predecessors are appended gate by gate into one growing buffer (a
   gate's dependences all point at earlier gates, so gate [i]'s slice is
   complete once [i] is read), deduplicated within the slice. Successor
   slices are filled from the last gate down, so each lists its
   successors latest first: the router and SR-CaQR visit successors in
   that order. *)
let build (c : Quantum.Circuit.t) =
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
  Array.iter
    (fun g ->
      let i = g.Quantum.Gate.id in
      let k = g.Quantum.Gate.kind in
      pred_start.(i) <- !len;
      (* A barrier orders every wire it spans like any gate; callers
         that weight nodes give it zero cost. *)
      List.iter
        (fun q ->
          add_dep last_q.(q) i;
          last_q.(q) <- i)
        (Quantum.Gate.qubits k);
      List.iter
        (fun cb ->
          add_dep last_c.(cb) i;
          last_c.(cb) <- i)
        (Quantum.Gate.clbits k))
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
  { Quantum.Dag.pred_start; pred_ids; succ_start; succ_ids }
