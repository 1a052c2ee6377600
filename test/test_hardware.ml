(* Unit tests for coupling maps, calibration, and the device model. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_falcon_shape () =
  let g = Hardware.Topology.falcon_27 in
  check int "27 qubits" 27 (Galg.Graph.order g);
  check int "28 links" 28 (Galg.Graph.size g);
  check bool "connected" true (Galg.Graph.is_connected g);
  (* Heavy-hex: degree at most 3. *)
  check bool "degree <= 3" true (Galg.Graph.max_degree g <= 3)

let test_heavy_hex_scaling () =
  let g = Hardware.Topology.heavy_hex ~rows:2 ~cols:2 in
  check bool "connected" true (Galg.Graph.is_connected g);
  check bool "degree <= 3" true (Galg.Graph.max_degree g <= 3);
  let g2 = Hardware.Topology.heavy_hex ~rows:3 ~cols:3 in
  check bool "bigger lattice" true (Galg.Graph.order g2 > Galg.Graph.order g)

let test_heavy_hex_at_least () =
  check int "small -> falcon" 27
    (Galg.Graph.order (Hardware.Topology.heavy_hex_at_least 10));
  let g = Hardware.Topology.heavy_hex_at_least 64 in
  check bool ">= 64" true (Galg.Graph.order g >= 64);
  check bool "connected" true (Galg.Graph.is_connected g)

let test_simple_topologies () =
  check int "line edges" 4 (Galg.Graph.size (Hardware.Topology.line 5));
  check int "ring edges" 5 (Galg.Graph.size (Hardware.Topology.ring 5));
  check int "grid 2x3 edges" 7 (Galg.Graph.size (Hardware.Topology.grid ~rows:2 ~cols:3));
  check int "star center degree" 4
    (Galg.Graph.degree (Hardware.Topology.star 5) 0);
  check int "full K4" 6 (Galg.Graph.size (Hardware.Topology.fully_connected 4));
  check int "t-shape" 4 (Galg.Graph.size Hardware.Topology.t_shape_5)

let test_t_shape_matches_paper_fig4 () =
  (* Fig. 4 (a): q1 has degree 3, others lower. *)
  let g = Hardware.Topology.t_shape_5 in
  check int "hub degree" 3 (Galg.Graph.degree g 1);
  check int "max degree 3" 3 (Galg.Graph.max_degree g)

let test_calibration_ranges () =
  let g = Hardware.Topology.falcon_27 in
  let cal = Hardware.Calibration.synthetic ~seed:1 g in
  List.iter
    (fun (u, v) ->
      let l = Hardware.Calibration.link cal u v in
      check bool "cx error range" true
        (l.Hardware.Calibration.cx_error >= 0.006
        && l.Hardware.Calibration.cx_error <= 0.025);
      check bool "cx duration range" true
        (l.Hardware.Calibration.cx_duration_dt >= 1200
        && l.Hardware.Calibration.cx_duration_dt <= 2400))
    (Galg.Graph.edges g);
  for q = 0 to 26 do
    let c = Hardware.Calibration.qubit cal q in
    check bool "readout range" true
      (c.Hardware.Calibration.readout_error >= 0.01
      && c.Hardware.Calibration.readout_error <= 0.05);
    check bool "t1 positive" true (c.Hardware.Calibration.t1_dt > 0.)
  done

let test_calibration_deterministic () =
  let g = Hardware.Topology.falcon_27 in
  let a = Hardware.Calibration.synthetic ~seed:7 g in
  let b = Hardware.Calibration.synthetic ~seed:7 g in
  check (Alcotest.float 0.) "same link error"
    (Hardware.Calibration.link a 0 1).Hardware.Calibration.cx_error
    (Hardware.Calibration.link b 0 1).Hardware.Calibration.cx_error

let test_calibration_link_missing () =
  let g = Hardware.Topology.falcon_27 in
  let cal = Hardware.Calibration.synthetic ~seed:1 g in
  Alcotest.check_raises "not a link"
    (Invalid_argument "Calibration.link: not a coupling edge") (fun () ->
      ignore (Hardware.Calibration.link cal 0 26))

let test_ideal_calibration () =
  let g = Hardware.Topology.line 4 in
  let cal = Hardware.Calibration.ideal g in
  List.iter
    (fun (u, v) ->
      check (Alcotest.float 0.) "zero error" 0.
        (Hardware.Calibration.link cal u v).Hardware.Calibration.cx_error)
    (Galg.Graph.edges g);
  check (Alcotest.float 0.) "zero readout" 0.
    (Hardware.Calibration.qubit cal 0).Hardware.Calibration.readout_error

let test_device_queries () =
  let d = Hardware.Device.mumbai in
  check int "27 qubits" 27 (Hardware.Device.num_qubits d);
  check bool "0-1 adjacent" true (Hardware.Device.adjacent d 0 1);
  check int "self distance" 0 (Hardware.Device.distance d 5 5);
  check int "adjacent distance" 1 (Hardware.Device.distance d 0 1);
  check bool "far apart" true (Hardware.Device.distance d 0 26 > 3);
  check bool "cx error sane" true
    (Hardware.Device.cx_error d 0 1 > 0. && Hardware.Device.cx_error d 0 1 < 0.03);
  check bool "non adjacent error sentinel" true (Hardware.Device.cx_error d 0 26 >= 1.)

let test_device_quality_prefers_connectivity () =
  let line = Hardware.Device.ideal (Hardware.Topology.line 5) in
  (* Middle of a line beats the endpoint. *)
  check bool "middle better" true
    (Hardware.Device.qubit_quality line 2 > Hardware.Device.qubit_quality line 0)

(* The flat link and quality tables agree with the calibration they were
   built from, link by link and qubit by qubit. Floats are compared
   exactly: the router's scores depend on every bit. *)
let test_device_tables () =
  let exact = Alcotest.float 0. in
  List.iter
    (fun (name, d) ->
      let cal = d.Hardware.Device.calibration and g = d.Hardware.Device.coupling in
      for u = 0 to Hardware.Device.num_qubits d - 1 do
        let ns = Galg.Graph.neighbors g u in
        check (Alcotest.list int) (name ^ ": neighbours") ns
          (Array.to_list d.Hardware.Device.nbrs.(u));
        List.iteri
          (fun i v ->
            let l = Hardware.Calibration.link cal u v in
            check exact (name ^ ": error table") l.Hardware.Calibration.cx_error
              d.Hardware.Device.nbr_error.(u).(i);
            check int (name ^ ": duration table") l.Hardware.Calibration.cx_duration_dt
              d.Hardware.Device.nbr_duration.(u).(i);
            check exact (name ^ ": cx_error") l.Hardware.Calibration.cx_error
              (Hardware.Device.cx_error d u v);
            check int (name ^ ": cx_duration") l.Hardware.Calibration.cx_duration_dt
              (Hardware.Device.cx_duration d u v))
          ns;
        let best_link =
          List.fold_left
            (fun acc v ->
              Float.max acc (1. -. (Hardware.Calibration.link cal u v).Hardware.Calibration.cx_error))
            0. ns
        in
        let quality =
          (0.5 *. float_of_int (Galg.Graph.degree g u))
          +. (1. -. (Hardware.Calibration.qubit cal u).Hardware.Calibration.readout_error)
          +. best_link
        in
        check exact (name ^ ": quality") quality (Hardware.Device.qubit_quality d u)
      done)
    [
      ("mumbai", Hardware.Device.mumbai);
      ("heavy hex 64", Hardware.Device.heavy_hex_for 64);
      ("heavy hex 130", Hardware.Device.heavy_hex_for 130);
      ("ideal", Hardware.Device.ideal (Hardware.Topology.grid ~rows:3 ~cols:4));
      ("noise x2", Hardware.Device.with_noise_scale 2. Hardware.Device.mumbai);
    ]

let test_heavy_hex_for () =
  let d = Hardware.Device.heavy_hex_for 64 in
  check bool ">= 64" true (Hardware.Device.num_qubits d >= 64);
  let m = Hardware.Device.heavy_hex_for 20 in
  check int "mumbai for small" 27 (Hardware.Device.num_qubits m)

let () =
  Alcotest.run "hardware"
    [
      ( "topology",
        [
          Alcotest.test_case "falcon 27" `Quick test_falcon_shape;
          Alcotest.test_case "heavy hex scaling" `Quick test_heavy_hex_scaling;
          Alcotest.test_case "heavy hex at least" `Quick test_heavy_hex_at_least;
          Alcotest.test_case "simple topologies" `Quick test_simple_topologies;
          Alcotest.test_case "fig4 t-shape" `Quick test_t_shape_matches_paper_fig4;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "ranges" `Quick test_calibration_ranges;
          Alcotest.test_case "deterministic" `Quick test_calibration_deterministic;
          Alcotest.test_case "missing link" `Quick test_calibration_link_missing;
          Alcotest.test_case "ideal" `Quick test_ideal_calibration;
        ] );
      ( "device",
        [
          Alcotest.test_case "queries" `Quick test_device_queries;
          Alcotest.test_case "quality" `Quick test_device_quality_prefers_connectivity;
          Alcotest.test_case "heavy hex for" `Quick test_heavy_hex_for;
          Alcotest.test_case "flat tables" `Quick test_device_tables;
        ] );
    ]
