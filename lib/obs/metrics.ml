(* Process-global counter / timer registry. The tables are shared by
   every domain the execution pool spawns, so each operation takes a
   single global mutex; contention is negligible because the hot loops
   increment a handful of counters per compiled circuit, not per gate. *)

let lock = Mutex.create ()
let protected f = Mutex.protect lock f

let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64
let timers : (string, float ref) Hashtbl.t = Hashtbl.create 32
let gauges : (string, int ref) Hashtbl.t = Hashtbl.create 16

let reset () =
  protected @@ fun () ->
  Hashtbl.reset counters;
  Hashtbl.reset timers;
  Hashtbl.reset gauges

let incr ?(by = 1) name =
  protected @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add counters name (ref by)

(* Counters and gauges materialize on first touch, which hides a metric
   that simply never fired. A subsystem that wants its failure counters
   visible at zero — so an operator can tell "never happened" from "not
   wired" — declares them up front. Declaring an existing key is a
   no-op; the value is never reset. *)
let declare name =
  protected @@ fun () ->
  if not (Hashtbl.mem counters name) then Hashtbl.add counters name (ref 0)

let declare_gauge name =
  protected @@ fun () ->
  if not (Hashtbl.mem gauges name) then Hashtbl.add gauges name (ref 0)

let count name =
  protected @@ fun () ->
  match Hashtbl.find_opt counters name with Some r -> !r | None -> 0

let set_gauge name v =
  protected @@ fun () ->
  match Hashtbl.find_opt gauges name with
  | Some r -> r := v
  | None -> Hashtbl.add gauges name (ref v)

let gauge name =
  protected @@ fun () ->
  match Hashtbl.find_opt gauges name with Some r -> !r | None -> 0

let add_time name dt =
  let dt = if dt < 0. then 0. else dt in
  protected @@ fun () ->
  match Hashtbl.find_opt timers name with
  | Some r -> r := !r +. dt
  | None -> Hashtbl.add timers name (ref dt)

let time name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> add_time name (Unix.gettimeofday () -. t0)) f

let timing name =
  protected @@ fun () ->
  match Hashtbl.find_opt timers name with Some r -> !r | None -> 0.

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  timings : (string * float) list;
}

(* Key order, then value order, as [compare] on the pairs. *)
let by_key compare_value (k1, v1) (k2, v2) =
  match String.compare k1 k2 with 0 -> compare_value v1 v2 | c -> c

let snapshot () =
  protected @@ fun () ->
  let dump tbl read = Hashtbl.fold (fun k r acc -> (k, read r) :: acc) tbl [] in
  {
    counters = List.sort (by_key Int.compare) (dump counters ( ! ));
    gauges = List.sort (by_key Int.compare) (dump gauges ( ! ));
    timings = List.sort (by_key Float.compare) (dump timers ( ! ));
  }

let pp ppf s =
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-28s %12d@." k v)
    s.counters;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-28s %12d (gauge)@." k v)
    s.gauges;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-28s %12.3f ms@." k (1000. *. v))
    s.timings

(* The keys are dot-separated identifiers and never need escaping; a
   hand-rolled printer keeps the library dependency-free. *)
let to_json s =
  let field f (k, v) = Printf.sprintf "%S:%s" k (f v) in
  let obj f kvs = "{" ^ String.concat "," (List.map (field f) kvs) ^ "}" in
  Printf.sprintf {|{"counters":%s,"gauges":%s,"timings_s":%s}|}
    (obj string_of_int s.counters)
    (obj string_of_int s.gauges)
    (obj (Printf.sprintf "%.6f") s.timings)
