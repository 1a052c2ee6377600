type t = { num_clbits : int; table : (int, int) Hashtbl.t; mutable total : int }

let create ~num_clbits = { num_clbits; table = Hashtbl.create 64; total = 0 }

let add t outcome =
  let cur = Option.value ~default:0 (Hashtbl.find_opt t.table outcome) in
  Hashtbl.replace t.table outcome (cur + 1);
  t.total <- t.total + 1

let total t = t.total
let get t outcome = Option.value ~default:0 (Hashtbl.find_opt t.table outcome)

let to_list t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])

let equal a b = a.num_clbits = b.num_clbits && to_list a = to_list b

(* Per-outcome addition: associative and commutative with [create] as
   identity, which is what lets the execution pool merge per-batch shot
   counts in any grouping and still match the sequential run. *)
let merge a b =
  if a.num_clbits <> b.num_clbits then
    invalid_arg "Counts.merge: clbit width mismatch";
  let t = create ~num_clbits:a.num_clbits in
  let pour src =
    Hashtbl.iter (fun k v -> Hashtbl.replace t.table k (get t k + v)) src.table;
    t.total <- t.total + src.total
  in
  pour a;
  pour b;
  t

let to_probs t =
  if t.total = 0 then []
  else
    let s = float_of_int t.total in
    Hashtbl.fold (fun k v acc -> (k, float_of_int v /. s) :: acc) t.table []
    |> List.sort compare

let of_probs ~num_clbits ~shots probs =
  let t = create ~num_clbits in
  List.iter
    (fun (k, p) ->
      let c = int_of_float (Float.round (p *. float_of_int shots)) in
      if c > 0 then begin
        Hashtbl.replace t.table k (get t k + c);
        t.total <- t.total + c
      end)
    probs;
  t

let tvd a b =
  let pa = to_probs a and pb = to_probs b in
  let keys =
    List.sort_uniq compare (List.map fst pa @ List.map fst pb)
  in
  let find k l = Option.value ~default:0. (List.assoc_opt k l) in
  (* Clamp: float summation can overshoot the [0, 1] bound by an ulp. *)
  Float.min 1.
    (Float.max 0.
       (0.5
       *. List.fold_left
            (fun acc k -> acc +. Float.abs (find k pa -. find k pb))
            0. keys))

let success_rate t outcome =
  if t.total = 0 then 0.
  else float_of_int (get t outcome) /. float_of_int t.total

let expectation t f =
  if t.total = 0 then 0.
  else
    Hashtbl.fold
      (fun k v acc -> acc +. (f k *. float_of_int v))
      t.table 0.
    /. float_of_int t.total

let top t =
  Hashtbl.fold
    (fun k v best ->
      match best with
      | Some (_, bv) when bv >= v -> best
      | _ -> Some (k, v))
    t.table None
  |> Option.map fst

let bitstring num_clbits k =
  String.init num_clbits (fun i ->
      if k land (1 lsl (num_clbits - 1 - i)) <> 0 then '1' else '0')

let pp ppf t =
  Format.fprintf ppf "@[<v>counts (%d shots):" t.total;
  List.iter
    (fun (k, p) ->
      Format.fprintf ppf "@,  %s: %.4f" (bitstring t.num_clbits k) p)
    (to_probs t);
  Format.fprintf ppf "@]"
