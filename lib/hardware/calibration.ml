type link = { cx_error : float; cx_duration_dt : int }

type qubit = {
  readout_error : float;
  t1_dt : float;
  t2_dt : float;
  one_q_error : float;
}

type t = { links : (int * int, link) Hashtbl.t; qubits : qubit array }

let key (u : int) v = if u < v then (u, v) else (v, u)

let synthetic ~seed g =
  let rng = Random.State.make [| seed; 0xca1 |] in
  let uniform lo hi = lo +. Random.State.float rng (hi -. lo) in
  let n = Galg.Graph.order g in
  let qubits =
    Array.init n (fun _ ->
        let t1_us = uniform 60. 180. in
        {
          readout_error = uniform 0.01 0.05;
          (* 1 us = 1000 / 0.22 dt *)
          t1_dt = t1_us *. 1000. /. Quantum.Duration.ns_per_dt;
          t2_dt = uniform 0.5 1.2 *. t1_us *. 1000. /. Quantum.Duration.ns_per_dt;
          one_q_error = uniform 2e-4 6e-4;
        })
  in
  let links = Hashtbl.create 64 in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace links (key u v)
        {
          cx_error = uniform 0.006 0.025;
          cx_duration_dt = int_of_float (uniform 1200. 2400.);
        })
    (Galg.Graph.edges g);
  { links; qubits }

let ideal g =
  let n = Galg.Graph.order g in
  let qubits =
    Array.init n (fun _ ->
        { readout_error = 0.; t1_dt = infinity; t2_dt = infinity; one_q_error = 0. })
  in
  let links = Hashtbl.create 64 in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace links (key u v)
        { cx_error = 0.; cx_duration_dt = Quantum.Duration.default.Quantum.Duration.cx })
    (Galg.Graph.edges g);
  { links; qubits }

let scale ~factor t =
  if factor < 0. then invalid_arg "Calibration.scale: negative factor";
  let clamp e = Float.min 0.5 (e *. factor) in
  let qubits =
    Array.map
      (fun q ->
        {
          readout_error = clamp q.readout_error;
          t1_dt = (if factor = 0. then infinity else q.t1_dt /. factor);
          t2_dt = (if factor = 0. then infinity else q.t2_dt /. factor);
          one_q_error = clamp q.one_q_error;
        })
      t.qubits
  in
  let links = Hashtbl.create (Hashtbl.length t.links) in
  Hashtbl.iter
    (fun k l ->
      Hashtbl.replace links k
        { cx_error = clamp l.cx_error; cx_duration_dt = l.cx_duration_dt })
    t.links;
  { links; qubits }

let link t u v =
  match Hashtbl.find_opt t.links (key u v) with
  | Some l -> l
  | None -> invalid_arg "Calibration.link: not a coupling edge"

let qubit t q = t.qubits.(q)
