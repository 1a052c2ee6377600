(* [Quantum.Qasm.to_string] against the frozen [Format]-based emitter
   [test/qasm_ref.ml]: byte for byte on Table 1 and its sweep rows, the
   large corpus, and fuzz circuits with special angles.

   Run alone with [dune exec test/test_qasm_emit.exe]. *)

let same what c =
  let got = Quantum.Qasm.to_string c and want = Qasm_ref.to_string c in
  if not (String.equal got want) then
    Alcotest.failf "%s: emitted text differs\n--- reference\n%s\n--- emitted\n%s" what want got

let test_table1 () =
  List.iter
    (fun (e : Benchmarks.Suite.entry) ->
      same e.name e.circuit;
      List.iteri
        (fun i (s : Caqr.Engine.step) -> same (Printf.sprintf "%s step %d" e.name i) s.circuit)
        (Caqr.Pipeline.steps (Benchmarks.Suite.input e)))
    (Benchmarks.Suite.table1 ())

let test_large () =
  List.iter (fun (g : Benchmarks.Large.gen) -> same g.name (g.build ())) (Benchmarks.Large.generators ())

let specials =
  [| -0.; 0.; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 1e-310; -1e-310; -2.5 |]

(* A Fuzz.Gen circuit whose angles are drawn from [specials] about half
   the time, with barriers of 0, 1 and many wires spliced in. *)
let special_circuit seed =
  let c =
    Fuzz.Gen.circuit { Fuzz.Gen.default with max_qubits = 8; max_gates = 60 } (Exec.Prng.make seed)
  in
  let rng = Exec.Prng.make (seed + 1) in
  let pick th =
    if Exec.Prng.int rng 2 = 0 then specials.(Exec.Prng.int rng (Array.length specials)) else th
  in
  let n = c.Quantum.Circuit.num_qubits in
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
  |> Quantum.Circuit.of_kinds ~num_qubits:n ~num_clbits:c.Quantum.Circuit.num_clbits

let prop_fuzz =
  QCheck.Test.make ~name:"to_string = reference on special-angle circuits" ~count:600
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let c = special_circuit seed in
      String.equal (Quantum.Qasm.to_string c) (Qasm_ref.to_string c))

let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x9a5; Hashtbl.hash name |]) t

let () =
  Alcotest.run "qasm_emit"
    [
      ( "reference",
        [
          Alcotest.test_case "table 1 and sweep rows" `Quick test_table1;
          Alcotest.test_case "large corpus" `Quick test_large;
          to_alcotest prop_fuzz;
        ] );
    ]
