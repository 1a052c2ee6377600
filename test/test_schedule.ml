(* Unit tests for ASAP scheduling and the timeline view. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module B = Quantum.Circuit.Builder
module G = Quantum.Gate

let model = Quantum.Duration.default

let test_makespan_equals_duration () =
  List.iter
    (fun c ->
      let s = Quantum.Schedule.asap c in
      check int "makespan = duration" (Quantum.Circuit.duration model c)
        s.Quantum.Schedule.makespan)
    [
      Benchmarks.Bv.circuit 6;
      Benchmarks.Revlib.multiply_13 ();
      Caqr.Qs_caqr.max_reuse (Benchmarks.Bv.circuit 5);
    ]

let test_start_times_respect_wires () =
  let c = Benchmarks.Bv.circuit 5 in
  let s = Quantum.Schedule.asap c in
  (* For every pair of gates sharing a wire, the later one starts at or
     after the earlier one finishes. *)
  let entries = s.Quantum.Schedule.entries in
  Array.iteri
    (fun i e1 ->
      Array.iteri
        (fun j e2 ->
          if i < j then begin
            let share =
              List.exists
                (fun q -> List.mem q (G.qubits e2.Quantum.Schedule.gate.G.kind))
                (G.qubits e1.Quantum.Schedule.gate.G.kind)
            in
            if share && not (G.is_barrier e1.Quantum.Schedule.gate.G.kind)
               && not (G.is_barrier e2.Quantum.Schedule.gate.G.kind)
            then
              check bool "ordering" true
                (e2.Quantum.Schedule.start_dt >= e1.Quantum.Schedule.finish_dt)
          end)
        entries)
    entries

let test_parallel_gates_overlap () =
  let b = B.create ~num_qubits:2 ~num_clbits:0 in
  B.h b 0;
  B.h b 1;
  let s = Quantum.Schedule.asap (B.build b) in
  check int "both start at 0" 0
    (s.Quantum.Schedule.entries.(0).Quantum.Schedule.start_dt
    + s.Quantum.Schedule.entries.(1).Quantum.Schedule.start_dt)

let test_busy_and_idle () =
  let b = B.create ~num_qubits:2 ~num_clbits:0 in
  B.h b 0;
  B.h b 0;
  B.h b 1;
  let s = Quantum.Schedule.asap (B.build b) in
  let busy = Quantum.Schedule.busy s ~num_qubits:2 in
  check int "q0 busy" (2 * model.Quantum.Duration.one_q) busy.(0);
  check int "q1 busy" model.Quantum.Duration.one_q busy.(1);
  let idle = Quantum.Schedule.idle_fraction s ~num_qubits:2 in
  check (Alcotest.float 1e-9) "q0 never idle" 0. idle.(0);
  check (Alcotest.float 1e-9) "q1 half idle" 0.5 idle.(1)

let test_empty_circuit () =
  let s = Quantum.Schedule.asap (Quantum.Circuit.empty ~num_qubits:3 ~num_clbits:0) in
  check int "zero makespan" 0 s.Quantum.Schedule.makespan;
  check Alcotest.string "empty timeline" ""
    (Quantum.Schedule.to_string ~num_qubits:3 s)

let test_timeline_rows () =
  let c = Benchmarks.Bv.circuit 4 in
  let s = Quantum.Schedule.asap c in
  let text = Quantum.Schedule.to_string ~width:40 ~num_qubits:4 s in
  let rows = String.split_on_char '\n' text |> List.filter (fun r -> r <> "") in
  (* 4 qubit rows + the axis row *)
  check int "rows" 5 (List.length rows);
  check bool "mentions makespan" true
    (let needle = "dt" in
     let n = String.length needle and m = String.length text in
     let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
     go 0)

let test_idle_reflects_reuse_serialization () =
  (* The 2-qubit reused BV serializes on one wire: the ancilla wire gets
     idle gaps while the data wire measures/resets. *)
  let reused = fst (Quantum.Circuit.compact_qubits (Caqr.Qs_caqr.max_reuse (Benchmarks.Bv.circuit 5))) in
  let s = Quantum.Schedule.asap reused in
  let idle = Quantum.Schedule.idle_fraction s ~num_qubits:2 in
  check bool "some wire idles" true (Array.exists (fun f -> f > 0.2) idle)

(* Fuzz circuits with extra barriers and shared clbits: every gate lasts
   its model duration (a barrier none) and starts exactly at the latest
   finish of the earlier timed gates it shares a qubit wire or a clbit
   with (0 if none), so wire and clbit order hold and nothing starts
   late; the makespan is the latest finish and equals
   [Circuit.duration]. *)
let fuzz_cfg =
  { Fuzz.Gen.default with Fuzz.Gen.w_barrier = 3; p_share_clbit = 0.4 }

let prop_asap_on_fuzz_circuits =
  QCheck.Test.make
    ~name:"asap: makespan = duration, wire and clbit order (fuzz)" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let c = Fuzz.Gen.circuit fuzz_cfg (Exec.Prng.make seed) in
      let s = Quantum.Schedule.asap c in
      let e = s.Quantum.Schedule.entries in
      let kind i = e.(i).Quantum.Schedule.gate.G.kind in
      let timed i = not (G.is_barrier (kind i)) in
      let overlap xs ys = List.exists (fun x -> List.mem x ys) xs in
      let shares i j =
        overlap (G.qubits (kind i)) (G.qubits (kind j))
        || overlap (G.clbits (kind i)) (G.clbits (kind j))
      in
      let entry_ok j (ej : Quantum.Schedule.entry) =
        let latest = ref 0 in
        for i = 0 to j - 1 do
          if timed i && shares i j then
            latest := max !latest e.(i).Quantum.Schedule.finish_dt
        done;
        let dur =
          if timed j then Quantum.Duration.of_kind model (kind j) else 0
        in
        ej.Quantum.Schedule.start_dt = !latest
        && ej.Quantum.Schedule.finish_dt - ej.Quantum.Schedule.start_dt = dur
      in
      let last_finish =
        Array.fold_left (fun m x -> max m x.Quantum.Schedule.finish_dt) 0 e
      in
      Array.for_all Fun.id (Array.mapi entry_ok e)
      && s.Quantum.Schedule.makespan = last_finish
      && s.Quantum.Schedule.makespan = Quantum.Circuit.duration model c)

let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5c4; Hashtbl.hash name |])
    t

let () =
  Alcotest.run "schedule"
    [
      ( "asap",
        [
          Alcotest.test_case "makespan = duration" `Quick test_makespan_equals_duration;
          Alcotest.test_case "wire ordering" `Quick test_start_times_respect_wires;
          Alcotest.test_case "parallel overlap" `Quick test_parallel_gates_overlap;
          Alcotest.test_case "busy and idle" `Quick test_busy_and_idle;
          Alcotest.test_case "empty" `Quick test_empty_circuit;
          to_alcotest prop_asap_on_fuzz_circuits;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "rows" `Quick test_timeline_rows;
          Alcotest.test_case "reuse idles" `Quick test_idle_reflects_reuse_serialization;
        ] );
    ]
