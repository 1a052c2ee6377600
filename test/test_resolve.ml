(* Inline-request resolution: the pieces the compilation service runs on
   every inline QASM-3 request before any engine does — parse, digest and
   device lookup — against their contracts and the frozen code they
   replaced ([test/qasm_parser_ref.ml], [test/canon_ref.ml]). *)

let check = Alcotest.check
let bool = Alcotest.bool

(* ---- devices ---- *)

(* A width no other case of this binary asks for first, so two domains
   race its first build. *)
let race_width = 300

let test_race () =
  let start = Atomic.make false in
  let spawn () =
    Domain.spawn (fun () ->
        while not (Atomic.get start) do
          Domain.cpu_relax ()
        done;
        Hardware.Device.heavy_hex_for race_width)
  in
  let a = spawn () and b = spawn () in
  Atomic.set start true;
  let da = Domain.join a and db = Domain.join b in
  check bool "one value for both domains" true (da == db);
  check bool "later calls get it too" true (Hardware.Device.heavy_hex_for race_width == da)

let test_shared () =
  List.iter
    (fun n ->
      check bool
        (Printf.sprintf "heavy_hex_for %d is one value" n)
        true
        (Hardware.Device.heavy_hex_for n == Hardware.Device.heavy_hex_for n))
    [ 1; 27; 28; 36; 47; 48; 129; 260; 327 ];
  check bool "up to 27 qubits: mumbai" true
    (Hardware.Device.heavy_hex_for 5 == Hardware.Device.mumbai);
  (* 36 and 40 both fit the 47-qubit grid: one coupling and distance
     table, two calibrations. *)
  let a = Hardware.Device.heavy_hex_for 36 and b = Hardware.Device.heavy_hex_for 40 in
  check bool "one grid" true (a.dist == b.dist && a.nbrs == b.nbrs && a.coupling == b.coupling);
  check bool "two calibrations" false (a.calibration == b.calibration)

(* Every table of the device for width [n] equals what a fresh build of
   the same grid and seeded calibration gives. *)
let check_fresh n (d : Hardware.Device.t) =
  let g = Hardware.Topology.heavy_hex_at_least n in
  let fresh = Hardware.Device.ideal g in
  let cal = Hardware.Calibration.synthetic ~seed:(1000 + n) g in
  let what s = Printf.sprintf "width %d: %s" n s in
  check bool (what "edges") true
    (Galg.Graph.edges d.coupling = Galg.Graph.edges g);
  check bool (what "nbrs") true (d.nbrs = fresh.nbrs);
  check bool (what "dist") true (d.dist = fresh.dist);
  let link f = Array.mapi (fun u -> Array.map (fun v -> f (Hardware.Calibration.link cal u v))) d.nbrs in
  check bool (what "link errors") true
    (d.nbr_error = link (fun l -> l.Hardware.Calibration.cx_error));
  check bool (what "link durations") true
    (d.nbr_duration = link (fun l -> l.Hardware.Calibration.cx_duration_dt));
  List.iter
    (fun (u, v) ->
      check bool (what "calibration link") true
        (Hardware.Calibration.link d.calibration u v = Hardware.Calibration.link cal u v))
    (Galg.Graph.edges g);
  for q = 0 to Galg.Graph.order g - 1 do
    check bool (what "calibration qubit") true
      (Hardware.Calibration.qubit d.calibration q = Hardware.Calibration.qubit cal q);
    let best = Array.fold_left (fun acc e -> Float.max acc (1. -. e)) 0. d.nbr_error.(q) in
    let readout = (Hardware.Calibration.qubit cal q).Hardware.Calibration.readout_error in
    let quality =
      (0.5 *. float_of_int (Array.length d.nbrs.(q))) +. (1. -. readout) +. best
    in
    check bool (what "quality") true
      (Int64.bits_of_float d.quality.(q) = Int64.bits_of_float quality)
  done

let test_fresh () =
  for n = 28 to 327 do
    check_fresh n (Hardware.Device.heavy_hex_for n)
  done

(* Past the 327-qubit ceiling nothing is kept: each call builds its own
   device, which still equals a fresh build. *)
let test_ceiling () =
  List.iter
    (fun n ->
      let a = Hardware.Device.heavy_hex_for n in
      let b = Hardware.Device.heavy_hex_for n in
      check bool (Printf.sprintf "heavy_hex_for %d is built per call" n) false (a == b);
      check bool (Printf.sprintf "width %d: no shared grid" n) false (a.dist == b.dist);
      check_fresh n a)
    [ 328; 420 ]

(* ---- digest ---- *)

let canon_ref c =
  let b = Buffer.create 256 in
  Canon_ref.canon_buf b c;
  Buffer.contents b

(* [Circuit.digest] hashes the library's canonical text: equal digests
   mean equal text. The reference text is printed on a mismatch. *)
let same_digest c =
  Quantum.Circuit.digest c = Digest.to_hex (Digest.string (canon_ref c))

let check_canon what c =
  if not (same_digest c) then
    Alcotest.failf "%s: digest differs from the reference canonical text\n%s" what
      (canon_ref c)

let test_canon_table1 () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      check_canon e.name e.circuit;
      List.iteri
        (fun i (s : Caqr.Engine.step) ->
          check_canon (Printf.sprintf "%s step %d" e.name i) s.circuit)
        (Caqr.Pipeline.steps (Benchmarks.Suite.input e)))
    (Benchmarks.Suite.table1 ())

let test_canon_large () =
  List.iter
    (fun (g : Benchmarks.Large.gen) -> check_canon g.name (g.build ()))
    (Benchmarks.Large.generators ())

let specials = [| -0.; 0.; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 1e-310; -2.5 |]

(* A Fuzz.Gen circuit whose angles are drawn from [specials] about half
   the time, with barriers of 0, 1 and many wires spliced in. *)
let special_circuit seed =
  let c = Fuzz.Gen.circuit { Fuzz.Gen.default with max_qubits = 8; max_gates = 60 } (Exec.Prng.make seed) in
  let rng = Exec.Prng.make (seed + 1) in
  let pick th = if Exec.Prng.int rng 2 = 0 then specials.(Exec.Prng.int rng (Array.length specials)) else th in
  let n = c.Quantum.Circuit.num_qubits in
  let kinds =
    Array.to_list c.Quantum.Circuit.gates
    |> List.concat_map (fun (g : Quantum.Gate.t) ->
           let k =
             match g.kind with
             | Quantum.Gate.One_q (Rx th, q) -> Quantum.Gate.One_q (Rx (pick th), q)
             | One_q (Ry th, q) -> One_q (Ry (pick th), q)
             | One_q (Rz th, q) -> One_q (Rz (pick th), q)
             | One_q (Phase th, q) -> One_q (Phase (pick th), q)
             | Rzz (th, a, b) -> Rzz (pick th, a, b)
             | k -> k
           in
           match Exec.Prng.int rng 8 with
           | 0 -> [ Quantum.Gate.Barrier []; k ]
           | 1 -> [ Barrier [ Exec.Prng.int rng n ]; k ]
           | 2 -> [ Barrier (List.init n Fun.id); k ]
           | _ -> [ k ])
  in
  Quantum.Circuit.of_kinds ~num_qubits:n ~num_clbits:c.Quantum.Circuit.num_clbits kinds

let prop_canon_fuzz =
  QCheck.Test.make ~name:"digest = reference on special-angle circuits" ~count:500
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      same_digest (special_circuit seed))

let test_canon_edges () =
  let c kinds = Quantum.Circuit.of_kinds ~num_qubits:3 ~num_clbits:2 kinds in
  List.iter
    (fun (what, circuit) -> check_canon what circuit)
    [
      ("empty", Quantum.Circuit.empty ~num_qubits:0 ~num_clbits:0);
      ("wide", Quantum.Circuit.empty ~num_qubits:1_000_000 ~num_clbits:123_456_789);
      ("barriers", c [ Barrier []; Barrier [ 2 ]; Barrier [ 0; 1; 2 ] ]);
      ( "angles",
        c
          (List.map
             (fun th -> Quantum.Gate.One_q (Rz th, 1))
             (Array.to_list specials @ [ Float.pi; -.Float.pi; Float.max_float; Float.min_float ])) );
    ]

(* ---- parser ---- *)

(* Hits of "parse.stmt" in one parse: the largest k at which a fault
   armed at the k-th hit fires. *)
let hits parse src =
  let fires k =
    Guard.Inject.arm ~at_hit:k "parse.stmt";
    ignore (parse src);
    let f = Guard.Inject.fired () = 1 in
    Guard.Inject.disarm ();
    f
  in
  let rec grow hi = if fires hi then grow (2 * hi) else hi in
  let rec search lo hi = (* fires lo (or lo = 0), not hi *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fires mid then search mid hi else search lo mid
  in
  if not (fires 1) then 0
  else
    let hi = grow 2 in
    search (hi / 2) hi

let outcome r =
  match r with
  | Ok c -> "ok " ^ canon_ref c
  | Error (e : Guard.Error.t) -> Printf.sprintf "error %s %s %s" e.stage e.site e.detail

(* The scanner and the reference agree on one source: same circuit or
   same error, same number of statement hits. *)
let agree src =
  outcome (Qasm_parser_ref.parse src) = outcome (Quantum.Qasm_parser.parse src)
  && hits Qasm_parser_ref.parse src = hits Quantum.Qasm_parser.parse src

let check_agree what src =
  let r = outcome (Qasm_parser_ref.parse src) and s = outcome (Quantum.Qasm_parser.parse src) in
  check Alcotest.string (what ^ ": " ^ String.escaped src) r s;
  check Alcotest.int
    (what ^ " hits: " ^ String.escaped src)
    (hits Qasm_parser_ref.parse src)
    (hits Quantum.Qasm_parser.parse src)

let fuzz_program seed =
  Quantum.Qasm.to_string
    (Fuzz.Gen.circuit { Fuzz.Gen.default with max_qubits = 6; max_gates = 30 } (Exec.Prng.make seed))

(* Characters a mutation writes: the grammar's punctuation, blanks of
   every kind, and letters and digits of names and indices. *)
let alphabet = " \t\r\n\012;/,()[]-=>*.+_0179qcxhpimeasur"

let mutate rng src =
  let n = String.length src in
  let at () = Exec.Prng.int rng (max 1 n) in
  let splice i cut ins = String.sub src 0 i ^ ins ^ String.sub src (i + cut) (n - i - cut) in
  let ch () = String.make 1 alphabet.[Exec.Prng.int rng (String.length alphabet)] in
  if n = 0 then ch ()
  else
    match Exec.Prng.int rng 9 with
    | 0 -> splice (at ()) 1 ""
    | 1 -> let i = at () in splice i 0 (String.make 1 src.[i])
    | 2 -> splice (at ()) 1 (ch ())
    | 3 -> splice (at ()) 0 (ch ())
    | 4 -> String.concat "\r\n" (String.split_on_char '\n' src)
    | 5 -> String.map (fun c -> if c = ' ' && Exec.Prng.int rng 2 = 0 then '\t' else c) src
    | 6 -> splice (at ()) 0 (if Exec.Prng.int rng 2 = 0 then "// a; b\n" else "//")
    | 7 -> splice (at ()) 0 (if Exec.Prng.int rng 2 = 0 then "  " else " \n ")
    | _ -> let i = at () in splice i 0 (String.sub src i (min 12 (n - i)))

let prop_parse_emitted =
  QCheck.Test.make ~name:"scanner = reference on emitted Fuzz.Gen programs" ~count:300
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed -> agree (fuzz_program seed))

let prop_parse_mutated =
  QCheck.Test.make ~name:"scanner = reference on mutated programs" ~count:1500
    (QCheck.make
       ~print:(fun (seed, k) -> Printf.sprintf "seed=%d mutations=%d" seed k)
       QCheck.Gen.(pair (int_bound 1_000_000) (int_range 1 4)))
    (fun (seed, k) ->
      let rng = Exec.Prng.make (seed + 7) in
      let src = ref (fuzz_program seed) in
      for _ = 1 to k do
        src := mutate rng !src
      done;
      agree !src)

(* Every single-character deletion, duplication and substitution of one
   short program. *)
let test_parse_every_mutation () =
  let src =
    "OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[3] q;\nbit[2] c;\n\
     rz(-pi/2) q[0];\ncx q[0], q[2];\nrzz(0.25) q[1], q[2];\n\
     c[1] = measure q[2];\nif (c[1]) x q[0];\nmeasure q[1] -> c[0];\n\
     reset q[2];\nbarrier q[0], q[1];\n"
  in
  let n = String.length src in
  for i = 0 to n - 1 do
    let splice cut ins = String.sub src 0 i ^ ins ^ String.sub src (i + cut) (n - i - cut) in
    check_agree "delete" (splice 1 "");
    check_agree "duplicate" (splice 0 (String.make 1 src.[i]));
    String.iter (fun c -> if c <> src.[i] then check_agree "substitute" (splice 1 (String.make 1 c))) alphabet
  done

(* Spellings the emitter never writes, one per grammar branch. *)
let test_parse_cases () =
  List.iter
    (check_agree "case")
    [
      "";
      ";;;";
      "qreg q[2]; creg c[1]; h q[1]; measure q[0] -> c[0];";
      "qubit[2]q;h\tq[0];\th q[1] ;";
      "qubit[2] q; // a; comment\nh q[0] // trailing\n; x q[1];";
      "qubit[2] q;\r\nh q[0];\r\n\r\n";
      "qubit[2] q; h  q[0]; cx q[0],  q[1]; cx q[0] ,q[1];";
      "qubit[0x2] q; qubit[+1] q; qubit[1_0] q; h q[0x3];";
      "qubit[-1] q;";
      "qubit[99999999999999999999] q;";
      "qubit[9999999999999999999] q;";
      "qubit[2] q; h q[4611686018427387904];";
      "qubit[2] q; h q[999999999999999999];";
      "bit[x] c;";
      "qubit q;";
      "qubit[2] q; h q[-1];";
      "qubit[2] q; h q[0x1];";
      "qubit[2] q; h q[ 1];";
      "qubit[2] q; h r[1];";
      "qubit[2] q; h q1];";
      "qubit[2] q; barrier;";
      "qubit[2] q; barrier q[0],q[1],q[9];";
      "qubit[2] q; barrierq[0];";
      "qubit[2] q; rx(pi*x) q[0];";
      "qubit[2] q; rx(y*x) q[0];";
      "qubit[2] q; rx(y/x) q[0];";
      "qubit[2] q; rx(-\tpi / 2) q[0];";
      "qubit[2] q; rx(-nan) q[0]; ry(-inf) q[0]; rz(-0.0) q[1]; p(1e400) q[1];";
      "qubit[2] q; rx q[0];";
      "qubit[2] q; h(1) q[0];";
      "qubit[2] q; rzz q[0], q[1];";
      "qubit[2] q; cx(1) q[0], q[1];";
      "qubit[2] q; cx q[0];";
      "qubit[2] q; h q[0], q[1];";
      "qubit[2] q; cx q[0], q[1], q[2];";
      "qubit[2] q; cx q[x], q[y];";
      "qubit[2] q; bit[1] c; measure q[x] -> c[y];";
      "qubit[2] q; bit[1] c; measure q[0];";
      "qubit[2] q; bit[1] c; c[y] = measure q[x];";
      "qubit[2] q; bit[1] c; c[0] = q[0];";
      "qubit[2] q; bit[1] c; c[0] = measure  q[0] extra;";
      "qubit[2] q; bit[1] c; if (c[0]) y q[1];";
      "qubit[2] q; bit[1] c; if c[0] x q[1];";
      "qubit[2] q; bit[1] c; if )c[0]( x q[1];";
      "qubit[2] q; bit[1] c; if (c[x]) z q[1];";
      "qubit[2] q; bit[1] c; if (c[0]) \t x q[1] \t;";
      "qubit[2] q; bit[1] c; if (c[0]) x \t q[1];";
      "qubit[2] q; reset q[5];";
      "qubit[2] q; reset\nq[0];";
      "qubit[2] q; frob q[0];";
      "OPENQASM\n3; include\t\"x\"; OPENQASM3;";
      "h q[0] // no terminator";
      "\012qubit[1] q;\r h q[0];";
    ]

let () =
  Alcotest.run "resolve"
    [
      ( "device",
        [
          Alcotest.test_case "two domains race one width" `Quick test_race;
          Alcotest.test_case "one value per width" `Quick test_shared;
          Alcotest.test_case "tables = fresh build, widths 28-327" `Quick test_fresh;
          Alcotest.test_case "wider devices are not kept" `Quick test_ceiling;
        ] );
      ( "digest",
        [
          Alcotest.test_case "digest = reference on Table 1" `Quick test_canon_table1;
          Alcotest.test_case "digest = reference on the large corpus" `Quick
            test_canon_large;
          Alcotest.test_case "digest = reference on edge cases" `Quick test_canon_edges;
          QCheck_alcotest.to_alcotest prop_canon_fuzz;
        ] );
      ( "parser",
        [
          Alcotest.test_case "hand-written cases" `Quick test_parse_cases;
          Alcotest.test_case "every one-character mutation" `Quick test_parse_every_mutation;
          QCheck_alcotest.to_alcotest prop_parse_emitted;
          QCheck_alcotest.to_alcotest prop_parse_mutated;
        ] );
    ]
