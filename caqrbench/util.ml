(* Measurement helpers shared by the workloads: clocks, percentiles,
   deltas of the library's own Obs/Gc counters, and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array (0 on no samples). *)
let pct_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = pct_sorted (sorted xs) p

(* Mean seconds per call of [f] over [xs], timed as one batch: the
   calls are too short for the clock to time one by one. *)
let mean_call f xs =
  match xs with
  | [] -> 0.
  | _ ->
    let (), dt = time (fun () -> List.iter (fun x -> ignore (f x)) xs) in
    dt /. float_of_int (List.length xs)
let median xs = percentile xs 50.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum_f = List.fold_left ( +. ) 0.
let sum_i = List.fold_left ( + ) 0

(* Per-op average that reads 0 rather than nan on an empty base. *)
let per base x = if base <= 0 then 0. else x /. float_of_int base
let ratio num den = if den <= 0 then 0. else float_of_int num /. float_of_int den

type tail = { value : float; pct : float; beyond : int; samples : int }

(* The highest of p99/p90 that has at least ten samples beyond it;
   below a hundred samples, the maximum (zero samples beyond). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let beyond p =
    n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))
  in
  match List.find_opt (fun p -> beyond p >= 10) [ 99.; 90. ] with
  | Some p -> { value = pct_sorted a p; pct = p; beyond = beyond p; samples = n }
  | None -> { value = pct_sorted a 100.; pct = 100.; beyond = 0; samples = n }

let tail_label t =
  Printf.sprintf "p%.0f of %d samples, %d beyond" t.pct t.samples t.beyond

(* ---- library counters, read as deltas (never reset: the registry is
   process-global and the in-process daemon shares it) ---- *)

type obs = {
  counters : (string * int) list;
  timings : (string * float) list;  (** seconds *)
}

let obs_now () =
  let s = Obs.Metrics.snapshot () in
  { counters = s.Obs.Metrics.counters; timings = s.Obs.Metrics.timings }

let obs_diff a b =
  let sub_i k v = v - Option.value ~default:0 (List.assoc_opt k a.counters) in
  let sub_f k v = v -. Option.value ~default:0. (List.assoc_opt k a.timings) in
  {
    counters = List.map (fun (k, v) -> (k, sub_i k v)) b.counters;
    timings = List.map (fun (k, v) -> (k, sub_f k v)) b.timings;
  }

let obs_zero = { counters = []; timings = [] }

let obs_add a b =
  let add_i k v = v + Option.value ~default:0 (List.assoc_opt k a.counters) in
  let add_f k v = v +. Option.value ~default:0. (List.assoc_opt k a.timings) in
  let only keys = List.filter (fun (k, _) -> not (List.mem_assoc k keys)) in
  {
    counters = List.map (fun (k, v) -> (k, add_i k v)) b.counters @ only b.counters a.counters;
    timings = List.map (fun (k, v) -> (k, add_f k v)) b.timings @ only b.timings a.timings;
  }

let obs_sum = List.fold_left obs_add obs_zero

let counter o k = Option.value ~default:0 (List.assoc_opt k o.counters)
let timer_ms o k = 1000. *. Option.value ~default:0. (List.assoc_opt k o.timings)
let counter_bumps o = sum_i (List.map snd o.counters)

(* Gc.quick_stat sums every domain's (sampled) counters, which the
   in-process daemon's handler domains need; Gc.allocated_bytes would
   only see the calling domain. *)
type gc = { minor : float; promoted : float; major : float; majors : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    major = s.Gc.major_words;
    majors = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor = b.minor -. a.minor;
    promoted = b.promoted -. a.promoted;
    major = b.major -. a.major;
    majors = b.majors - a.majors;
  }

let gc_add a b =
  {
    minor = a.minor +. b.minor;
    promoted = a.promoted +. b.promoted;
    major = a.major +. b.major;
    majors = a.majors + b.majors;
  }

let allocated_mb g =
  (g.minor +. g.major -. g.promoted) *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
         | Some kb -> float_of_int kb /. 1024.
         | None -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- results ---- *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* All 17 significant digits: the driver compares raw measurements. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-34s %18.6f %s\n" m.name m.value m.unit)
    ms

let result_line ~correct ~attempted ~failed ms =
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name
             (json_number m.value) m.unit)
         ms)
  in
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed body

(* Seeded Fisher-Yates over [0, n). *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Exec.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The first element of each key class, in order. *)
let distinct_by key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Set-up runs at least three times and until a quarter second is
   spent, each time from a collected heap, and its median is reported;
   only the last build is kept for the timed phase. [dispose] tears
   down an earlier build. *)
let repeated_setup ~dispose build =
  let rec go k spent acc last =
    if k >= 3 && spent >= 0.25 then (Option.get last, List.rev acc)
    else begin
      Option.iter dispose last;
      Gc.full_major ();
      let v, dt = time build in
      go (k + 1) (spent +. dt) (dt :: acc) (Some v)
    end
  in
  go 0 0. [] None

let setup_note setups =
  Printf.sprintf "setup_s: median of %d set-ups (min %.4f s, max %.4f s)"
    (List.length setups) (List.fold_left Float.min infinity setups)
    (List.fold_left Float.max 0. setups)
