(* Unit tests for the state-vector simulator, counts, and the noise model. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let floatc = Alcotest.float 1e-9
let float6 = Alcotest.float 1e-6

module G = Quantum.Gate
module B = Quantum.Circuit.Builder

let rng () = Random.State.make [| 42 |]

(* ---- State ---- *)

let test_init_ground () =
  let st = Sim.State.init 3 in
  check floatc "norm" 1. (Sim.State.norm2 st);
  check floatc "all zero amp" 1. (Sim.State.probability st 0);
  check int "width" 3 (Sim.State.num_qubits st)

let test_x_flips () =
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.X 1;
  check floatc "state |10>" 1. (Sim.State.probability st 0b10)

let test_h_superposition () =
  let st = Sim.State.init 1 in
  Sim.State.apply_one_q st G.H 0;
  check float6 "p0" 0.5 (Sim.State.probability st 0);
  check float6 "p1" 0.5 (Sim.State.probability st 1);
  Sim.State.apply_one_q st G.H 0;
  check float6 "h self inverse" 1. (Sim.State.probability st 0)

let test_rotation_identities () =
  let st = Sim.State.init 1 in
  Sim.State.apply_one_q st (G.Rx Float.pi) 0;
  (* Rx(pi) = -iX: probability of |1> is 1. *)
  check float6 "rx pi = x" 1. (Sim.State.probability st 1);
  let st2 = Sim.State.init 1 in
  Sim.State.apply_one_q st2 G.S 0;
  Sim.State.apply_one_q st2 G.Sdg 0;
  check float6 "s sdg = id" 1. (Sim.State.probability st2 0);
  let st3 = Sim.State.init 1 in
  Sim.State.apply_one_q st3 G.T 0;
  Sim.State.apply_one_q st3 G.T 0;
  Sim.State.apply_one_q st3 G.Sdg 0;
  check float6 "tt = s" 1. (Sim.State.probability st3 0)

let test_sx_squared_is_x () =
  let st = Sim.State.init 1 in
  Sim.State.apply_one_q st G.Sx 0;
  Sim.State.apply_one_q st G.Sx 0;
  check float6 "sx^2 = x" 1. (Sim.State.probability st 1)

let test_bell_state () =
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.H 0;
  Sim.State.apply_cx st 0 1;
  check float6 "p00" 0.5 (Sim.State.probability st 0b00);
  check float6 "p11" 0.5 (Sim.State.probability st 0b11);
  check float6 "p01" 0. (Sim.State.probability st 0b01);
  check floatc "norm preserved" 1. (Sim.State.norm2 st)

let test_cz_phase () =
  (* CZ on |11> flips sign; check via interference: H CZ H on q1 with q0=1. *)
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.X 0;
  Sim.State.apply_one_q st G.H 1;
  Sim.State.apply_cz st 0 1;
  Sim.State.apply_one_q st G.H 1;
  (* CZ acts as Z on q1 (since q0 = 1): HZH = X -> q1 becomes 1. *)
  check float6 "|11>" 1. (Sim.State.probability st 0b11)

let test_swap () =
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.X 0;
  Sim.State.apply_swap st 0 1;
  check float6 "swapped to |10>" 1. (Sim.State.probability st 0b10)

let test_rzz_diagonal_phase () =
  (* exp(-i th/2 ZZ): on |00> it is a global phase; probabilities unchanged. *)
  let st = Sim.State.init 2 in
  Sim.State.apply_rzz st 0.7 0 1;
  check float6 "stays |00|" 1. (Sim.State.probability st 0);
  (* Interference check: rzz(pi) between H-basis qubits acts like CZ up to
     local rotations; verify norm + nontrivial action. *)
  let st2 = Sim.State.init 2 in
  Sim.State.apply_one_q st2 G.H 0;
  Sim.State.apply_one_q st2 G.H 1;
  Sim.State.apply_rzz st2 Float.pi 0 1;
  Sim.State.apply_one_q st2 G.H 0;
  Sim.State.apply_one_q st2 G.H 1;
  check floatc "norm" 1. (Sim.State.norm2 st2);
  check bool "acted nontrivially" true (Sim.State.probability st2 0 < 0.9)

let test_measure_deterministic () =
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.X 1;
  check int "measure 1" 1 (Sim.State.measure (rng ()) st 1);
  check int "measure 0" 0 (Sim.State.measure (rng ()) st 0);
  check floatc "norm after collapse" 1. (Sim.State.norm2 st)

let test_measure_collapses () =
  let st = Sim.State.init 2 in
  Sim.State.apply_one_q st G.H 0;
  Sim.State.apply_cx st 0 1;
  let r = rng () in
  let m0 = Sim.State.measure r st 0 in
  let m1 = Sim.State.measure r st 1 in
  check int "bell correlation" m0 m1

let test_reset_forces_ground () =
  let st = Sim.State.init 1 in
  Sim.State.apply_one_q st G.H 0;
  Sim.State.reset (rng ()) st 0;
  check float6 "ground" 0. (Sim.State.prob_one st 0)

let test_pauli_channel () =
  let st = Sim.State.init 1 in
  Sim.State.apply_pauli st 1 0;
  check float6 "x" 1. (Sim.State.prob_one st 0);
  Sim.State.apply_pauli st 2 0;
  check float6 "y flips back" 0. (Sim.State.prob_one st 0);
  Sim.State.apply_pauli st 0 0;
  check float6 "identity" 0. (Sim.State.prob_one st 0)

(* The one unitary kernel: the same state as the per-gate calls (the
   closing H turns the phase gates' work into probabilities), a barrier
   changes nothing, and a classical-register op is refused. *)
let test_apply_unitary () =
  let kinds =
    [ G.One_q (G.H, 0); G.Barrier [ 0; 1 ]; G.Cx (0, 1); G.Rzz (0.3, 1, 2);
      G.Cz (0, 2); G.Swap (1, 2); G.One_q (G.H, 2) ]
  in
  let st = Sim.State.init 3 in
  List.iter (Sim.State.apply_unitary st) kinds;
  let by_hand = Sim.State.init 3 in
  Sim.State.apply_one_q by_hand G.H 0;
  Sim.State.apply_cx by_hand 0 1;
  Sim.State.apply_rzz by_hand 0.3 1 2;
  Sim.State.apply_cz by_hand 0 2;
  Sim.State.apply_swap by_hand 1 2;
  Sim.State.apply_one_q by_hand G.H 2;
  check bool "same state" true
    (Sim.State.probabilities st = Sim.State.probabilities by_hand);
  List.iter
    (fun kind ->
      Alcotest.check_raises "not a unitary"
        (Invalid_argument "State.apply_unitary: not a unitary") (fun () ->
          Sim.State.apply_unitary st kind))
    [ G.Measure (0, 0); G.Reset 0; G.If_x (0, 0) ]

let test_width_guard () =
  Alcotest.check_raises "too wide"
    (Invalid_argument "State.init: unsupported width") (fun () ->
      ignore (Sim.State.init 30))

(* ---- Counts ---- *)

let test_counts_basic () =
  let c = Sim.Counts.create ~num_clbits:2 in
  Sim.Counts.add c 0;
  Sim.Counts.add c 3;
  Sim.Counts.add c 3;
  check int "total" 3 (Sim.Counts.total c);
  check int "get 3" 2 (Sim.Counts.get c 3);
  check (Alcotest.option int) "top" (Some 3) (Sim.Counts.top c);
  check (Alcotest.float 1e-9) "success rate" (2. /. 3.) (Sim.Counts.success_rate c 3)

let test_tvd_axioms () =
  let mk l =
    let c = Sim.Counts.create ~num_clbits:2 in
    List.iter (Sim.Counts.add c) l;
    c
  in
  let a = mk [ 0; 0; 1; 1 ] and b = mk [ 0; 0; 1; 1 ] in
  check floatc "identical -> 0" 0. (Sim.Counts.tvd a b);
  let c = mk [ 2; 2; 2; 2 ] in
  check floatc "disjoint -> 1" 1. (Sim.Counts.tvd a c);
  check floatc "symmetric" (Sim.Counts.tvd a c) (Sim.Counts.tvd c a)

let test_expectation () =
  let c = Sim.Counts.create ~num_clbits:2 in
  Sim.Counts.add c 0;
  Sim.Counts.add c 3;
  check floatc "mean of f" 1.5 (Sim.Counts.expectation c float_of_int)

let test_of_probs () =
  let c = Sim.Counts.of_probs ~num_clbits:1 ~shots:1000 [ (0, 0.25); (1, 0.75) ] in
  check int "scaled" 250 (Sim.Counts.get c 0);
  check int "total" 1000 (Sim.Counts.total c)

(* ---- Executor ---- *)

let test_executor_bell () =
  let b = B.create ~num_qubits:2 ~num_clbits:2 in
  B.h b 0;
  B.cx b 0 1;
  B.measure b 0 0;
  B.measure b 1 1;
  let counts = Sim.Executor.run ~seed:1 ~shots:500 (B.build b) in
  check int "only 00 and 11" 500 (Sim.Counts.get counts 0 + Sim.Counts.get counts 3);
  check bool "both outcomes seen" true
    (Sim.Counts.get counts 0 > 150 && Sim.Counts.get counts 3 > 150)

let test_executor_dynamic_teleport_like () =
  (* Measure + conditional X moves a bit: prepare q0 = 1, measure into c0,
     conditionally flip q1 -> q1 reads 1. *)
  let b = B.create ~num_qubits:2 ~num_clbits:2 in
  B.x b 0;
  B.measure b 0 0;
  B.if_x b 0 1;
  B.measure b 1 1;
  let counts = Sim.Executor.run ~seed:2 ~shots:50 (B.build b) in
  check int "c = 11 always" 50 (Sim.Counts.get counts 0b11)

let test_executor_reset_reuse () =
  (* The Fig. 1 idiom: q0 carries |1>, is measured and conditionally reset,
     then reused; second measurement must read 0 deterministically. *)
  let b = B.create ~num_qubits:1 ~num_clbits:2 in
  B.x b 0;
  B.measure b 0 0;
  B.if_x b 0 0;
  B.measure b 0 1;
  let counts = Sim.Executor.run ~seed:3 ~shots:50 (B.build b) in
  check int "first 1, second 0" 50 (Sim.Counts.get counts 0b01)

let test_distribution_exact () =
  let b = B.create ~num_qubits:1 ~num_clbits:1 in
  B.h b 0;
  B.measure b 0 0;
  let d = Sim.Executor.distribution ~seed:1 (B.build b) in
  check bool "half-half" true
    (Float.abs (Sim.Counts.success_rate d 0 -. 0.5) < 0.01)

let test_distribution_shared_clbit () =
  (* Two final measurements write c[0]; the later one (q[0], always 0)
     wins on every shot, and the exact distribution must agree. *)
  let b = B.create ~num_qubits:2 ~num_clbits:1 in
  B.x b 1;
  B.measure b 1 0;
  B.measure b 0 0;
  let c = B.build b in
  check bool "final measurements only" true
    (Sim.Executor.only_final_measurements c);
  check int "every shot reads 0" 64
    (Sim.Counts.get (Sim.Executor.run ~seed:1 ~shots:64 c) 0);
  let d = Sim.Executor.distribution ~seed:1 c in
  check (Alcotest.list (Alcotest.pair int int)) "exact distribution reads 0"
    [ (0, Sim.Counts.total d) ]
    (Sim.Counts.to_list d)

let test_executor_compacts_wide_circuits () =
  (* A 27-wire circuit using only wires 20 and 26 must simulate fine. *)
  let b = B.create ~num_qubits:27 ~num_clbits:2 in
  B.h b 20;
  B.cx b 20 26;
  B.measure b 20 0;
  B.measure b 26 1;
  let counts = Sim.Executor.run ~seed:4 ~shots:100 (B.build b) in
  check int "correlated" 100 (Sim.Counts.get counts 0 + Sim.Counts.get counts 3)

(* ---- Noise ---- *)

let device () = Hardware.Device.mumbai

let bv_physical () =
  (* BV-3 placed on adjacent Mumbai qubits 0,1,2 with 2 as ancilla... use
     1 as the ancilla since 0-1 and 1-2 are links. *)
  let b = B.create ~num_qubits:27 ~num_clbits:2 in
  B.h b 0;
  B.h b 2;
  B.x b 1;
  B.h b 1;
  B.cx b 0 1;
  B.cx b 2 1;
  B.h b 0;
  B.h b 2;
  B.measure b 0 0;
  B.measure b 2 1;
  B.build b

let test_noise_preserves_trend () =
  let c = bv_physical () in
  let noisy = Sim.Noise.run ~device:(device ()) ~seed:5 ~shots:400 c in
  (* The ideal outcome 0b11 must still dominate but with some errors. *)
  let sr = Sim.Counts.success_rate noisy 0b11 in
  check bool "dominates" true (sr > 0.5);
  check bool "noisy" true (sr < 1.0)

let test_noise_tvd_positive () =
  let c = bv_physical () in
  let tvd = Sim.Noise.tvd_vs_ideal ~device:(device ()) ~seed:6 ~shots:400 c in
  check bool "tvd in (0, 1)" true (tvd > 0. && tvd < 1.)

let test_noise_ideal_device_is_noiseless () =
  let dev = Hardware.Device.ideal Hardware.Topology.falcon_27 in
  let c = bv_physical () in
  let counts = Sim.Noise.run ~device:dev ~seed:7 ~shots:200 c in
  check int "deterministic" 200 (Sim.Counts.get counts 0b11)

let test_longer_idle_means_more_error () =
  (* Same computation, but one version wastes time with long idle gaps on
     the measured qubit: its success rate should not be better. *)
  let quick =
    let b = B.create ~num_qubits:27 ~num_clbits:1 in
    B.x b 0;
    B.measure b 0 0;
    B.build b
  in
  let slow =
    let b = B.create ~num_qubits:27 ~num_clbits:1 in
    B.x b 0;
    (* Busy-wait on partner qubits forces idle accumulation on 0 through
       the schedule only if they share wires; instead insert many 1q gates
       on qubit 0 itself paired with inverse. *)
    for _ = 1 to 40 do
      B.x b 0;
      B.x b 0
    done;
    B.measure b 0 0;
    B.build b
  in
  let dev = device () in
  let sr c = Sim.Counts.success_rate (Sim.Noise.run ~device:dev ~seed:8 ~shots:600 c) 1 in
  check bool "more gates, not better" true (sr slow <= sr quick +. 0.02)

let test_noise_reset_path () =
  (* H; measure; reset; measure — the post-reset read is pinned to 0 up
     to readout error, even though the first read is a fair coin. This
     exercises the reset channel under Mumbai's nonzero idle/readout
     noise, which no other test covers. *)
  let b = B.create ~num_qubits:27 ~num_clbits:2 in
  B.h b 0;
  B.measure b 0 0;
  B.reset b 0;
  B.measure b 0 1;
  let c = B.build b in
  let counts = Sim.Noise.run ~device:(device ()) ~seed:9 ~shots:600 c in
  let zeros =
    Sim.Counts.expectation counts (fun o -> if o land 2 = 0 then 1.0 else 0.0)
  in
  check bool "post-reset reads 0 w.h.p." true (zeros > 0.9);
  let ones_first =
    Sim.Counts.expectation counts (fun o -> float_of_int (o land 1))
  in
  check bool "pre-reset read stays a fair coin" true
    (ones_first > 0.35 && ones_first < 0.65)

let test_noise_if_x_path () =
  (* X; measure; If_x — the classically-controlled correction flips the
     qubit back, so (c0=1, c1=0) dominates; noise makes it imperfect.
     Exercises the conditional-X channel under nonzero noise. *)
  let b = B.create ~num_qubits:27 ~num_clbits:2 in
  B.x b 0;
  B.measure b 0 0;
  B.if_x b 0 0;
  B.measure b 0 1;
  let c = B.build b in
  let counts = Sim.Noise.run ~device:(device ()) ~seed:10 ~shots:600 c in
  let sr = Sim.Counts.success_rate counts 0b01 in
  check bool "corrected outcome dominates" true (sr > 0.8);
  check bool "noise leaves a residue" true (sr < 1.0)

(* Byte-exact pins of [Noise.run]: the schedule (gate starts, idle
   windows, device durations) and the RNG draw order both show up in the
   counts, so any change to either moves these strings. Captured from
   the noise model as it stands; re-pin only on a deliberate change. *)
let render counts =
  String.concat " "
    (List.map
       (fun (o, n) -> Printf.sprintf "%x:%d" o n)
       (Sim.Counts.to_list counts))

let pinned_bv10 =
  "1f:1 33:1 3f:1 7f:2 fc:1 ff:2 10d:1 17f:1 1c9:1 1cf:2 1d7:1 1e7:4 1f3:3 "
  ^ "1fc:1 1ff:42"

let test_noise_pinned_bv10_sr () =
  let c = Benchmarks.Bv.circuit 10 in
  let p = (Caqr.Sr_caqr.regular (device ()) c).Caqr.Sr_caqr.physical in
  check Alcotest.string "BV_10 / sr counts" pinned_bv10
    (render (Sim.Noise.run ~device:(device ()) ~seed:3 ~shots:64 p))

(* SWAPs (three-CNOT duration and error), a mid-circuit measure, a reset,
   an If_x and a barrier, with idle gaps on every wire, on Mumbai links
   0-1, 1-2, 1-4 and 2-3. *)
let dynamic_physical () =
  let b = B.create ~num_qubits:27 ~num_clbits:4 in
  B.h b 0;
  B.cx b 0 1;
  B.swap b 1 2;
  B.h b 4;
  B.measure b 2 0;
  B.reset b 2;
  B.if_x b 0 3;
  B.cx b 1 4;
  B.barrier b [ 0; 1; 2; 3 ];
  B.swap b 2 3;
  B.rx b 0.7 2;
  B.cx b 1 2;
  B.measure b 1 1;
  B.measure b 3 2;
  B.measure b 4 3;
  B.build b

let pinned_dynamic = "0:33 1:49 2:6 3:2 4:7 5:5 8:48 9:39 a:3 b:3 c:2 d:3"

(* At 10x noise, T1/T2 are ten times shorter, so idle windows drive the
   outcome: a device duration that moves by one CNOT moves these counts. *)
let pinned_dynamic_x10 =
  "0:20 1:18 2:15 3:11 4:10 5:8 6:12 7:9 8:14 9:21 a:9 b:13 c:14 d:11 e:6 f:9"

let test_noise_pinned_dynamic () =
  let c = dynamic_physical () in
  check Alcotest.string "dynamic circuit counts" pinned_dynamic
    (render (Sim.Noise.run ~device:(device ()) ~seed:12 ~shots:200 c));
  let noisy = Hardware.Device.with_noise_scale 10. (device ()) in
  check Alcotest.string "dynamic circuit counts at 10x noise"
    pinned_dynamic_x10
    (render (Sim.Noise.run ~device:noisy ~seed:12 ~shots:200 c))

let () =
  Alcotest.run "sim"
    [
      ( "state",
        [
          Alcotest.test_case "init" `Quick test_init_ground;
          Alcotest.test_case "x" `Quick test_x_flips;
          Alcotest.test_case "h" `Quick test_h_superposition;
          Alcotest.test_case "rotations" `Quick test_rotation_identities;
          Alcotest.test_case "sx" `Quick test_sx_squared_is_x;
          Alcotest.test_case "bell" `Quick test_bell_state;
          Alcotest.test_case "cz" `Quick test_cz_phase;
          Alcotest.test_case "swap" `Quick test_swap;
          Alcotest.test_case "rzz" `Quick test_rzz_diagonal_phase;
          Alcotest.test_case "measure deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "measure collapse" `Quick test_measure_collapses;
          Alcotest.test_case "reset" `Quick test_reset_forces_ground;
          Alcotest.test_case "pauli" `Quick test_pauli_channel;
          Alcotest.test_case "width guard" `Quick test_width_guard;
          Alcotest.test_case "apply unitary" `Quick test_apply_unitary;
        ] );
      ( "counts",
        [
          Alcotest.test_case "basic" `Quick test_counts_basic;
          Alcotest.test_case "tvd axioms" `Quick test_tvd_axioms;
          Alcotest.test_case "expectation" `Quick test_expectation;
          Alcotest.test_case "of probs" `Quick test_of_probs;
        ] );
      ( "executor",
        [
          Alcotest.test_case "bell sampling" `Quick test_executor_bell;
          Alcotest.test_case "dynamic conditional" `Quick test_executor_dynamic_teleport_like;
          Alcotest.test_case "reset and reuse" `Quick test_executor_reset_reuse;
          Alcotest.test_case "exact distribution" `Quick test_distribution_exact;
          Alcotest.test_case "shared clbit read-off" `Quick test_distribution_shared_clbit;
          Alcotest.test_case "wide circuit compaction" `Quick test_executor_compacts_wide_circuits;
        ] );
      ( "noise",
        [
          Alcotest.test_case "trend preserved" `Quick test_noise_preserves_trend;
          Alcotest.test_case "tvd positive" `Quick test_noise_tvd_positive;
          Alcotest.test_case "ideal device" `Quick test_noise_ideal_device_is_noiseless;
          Alcotest.test_case "idle accumulates" `Quick test_longer_idle_means_more_error;
          Alcotest.test_case "reset under noise" `Quick test_noise_reset_path;
          Alcotest.test_case "conditional X under noise" `Quick test_noise_if_x_path;
          Alcotest.test_case "pinned counts bv10 sr" `Quick test_noise_pinned_bv10_sr;
          Alcotest.test_case "pinned counts dynamic" `Quick test_noise_pinned_dynamic;
        ] );
    ]
