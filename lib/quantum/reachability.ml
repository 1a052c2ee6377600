type t = { words : int; bits : Bytes.t array }

(* bits.(i) holds the set of nodes reachable from i, one bit per node. *)

let build dag =
  let n = Dag.num_nodes dag in
  let words = (n + 7) / 8 in
  let bits = Array.init n (fun _ -> Bytes.make (max 1 words) '\000') in
  let set b j =
    let byte = j lsr 3 and bit = j land 7 in
    Bytes.unsafe_set b byte
      (Char.chr (Char.code (Bytes.unsafe_get b byte) lor (1 lsl bit)))
  in
  let union dst src =
    for k = 0 to Bytes.length dst - 1 do
      Bytes.unsafe_set dst k
        (Char.chr
           (Char.code (Bytes.unsafe_get dst k)
           lor Char.code (Bytes.unsafe_get src k)))
    done
  in
  (* Gates are in topological (execution) order, so a reverse scan sees all
     successors before each node. *)
  for i = n - 1 downto 0 do
    set bits.(i) i;
    Dag.iter_succs (fun j -> union bits.(i) bits.(j)) dag i
  done;
  { words; bits }

let reaches t i j =
  let b = t.bits.(i) in
  let byte = j lsr 3 and bit = j land 7 in
  byte < Bytes.length b && Char.code (Bytes.get b byte) land (1 lsl bit) <> 0

let any_path t srcs dsts =
  List.exists (fun s -> List.exists (fun d -> reaches t s d) dsts) srcs
