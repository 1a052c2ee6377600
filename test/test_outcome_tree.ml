(* The outcome-tree walker in [Sim.Executor] against the code it
   replaced: the per-shot loop ([test/executor_ref.ml]) for sampled
   counts and the exact checker's branch recursion ([test/equiv_ref.ml])
   for distributions and verdicts. Counts must be equal, distributions
   equal bit for bit, and verdicts equal as strings.

   Run alone with [dune exec test/test_outcome_tree.exe]. *)

let check = Alcotest.check
let bool = Alcotest.bool

let shot_counts = [ 1; 255; 256; 257; 1000 ]

let same_counts a b =
  Sim.Counts.total a = Sim.Counts.total b
  && List.equal
       (fun (k, v) (k', v') -> k = k' && v = v')
       (Sim.Counts.to_list a) (Sim.Counts.to_list b)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let same_dist a b =
  match (a, b) with
  | Ok a, Ok b -> same_bits a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let specials = [| -0.; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 1e-310 |]

(* A Fuzz.Gen circuit with mid-circuit measurement, reset, conditional
   X, shared clbits and barriers. For odd seeds some angles are replaced
   by [specials], so NaN states reach the branch and prune tests. *)
let circuit seed =
  let cfg = { Fuzz.Gen.default with w_measure = 3; w_reset = 2; w_if_x = 2; p_share_clbit = 0.3 } in
  let c = Fuzz.Gen.circuit cfg (Exec.Prng.make seed) in
  if seed land 1 = 0 then c
  else begin
    let rng = Exec.Prng.make (seed + 1) in
    let pick th =
      if Exec.Prng.int rng 4 = 0 then specials.(Exec.Prng.int rng (Array.length specials)) else th
    in
    let kinds =
      Array.to_list c.Quantum.Circuit.gates
      |> List.map (fun (g : Quantum.Gate.t) ->
             match g.kind with
             | Quantum.Gate.One_q (Rx th, q) -> Quantum.Gate.One_q (Rx (pick th), q)
             | One_q (Ry th, q) -> One_q (Ry (pick th), q)
             | One_q (Rz th, q) -> One_q (Rz (pick th), q)
             | One_q (Phase th, q) -> One_q (Phase (pick th), q)
             | Rzz (th, a, b) -> Rzz (pick th, a, b)
             | k -> k)
    in
    Quantum.Circuit.of_kinds ~num_qubits:c.num_qubits ~num_clbits:c.num_clbits kinds
  end

(* [c] without its [k]-th gate: usually a different distribution, so
   the verdicts compared include inequivalent ones and their details. *)
let drop_gate c k =
  let gates = Array.to_list c.Quantum.Circuit.gates in
  Quantum.Circuit.of_kinds ~num_qubits:c.num_qubits ~num_clbits:c.num_clbits
    (List.filteri (fun i _ -> i <> k) gates |> List.map (fun (g : Quantum.Gate.t) -> g.kind))

(* The distance in "exact distributions differ (L1 distance <x> over
   ...". *)
let l1_of detail =
  match String.split_on_char ' ' detail with
  | [ _; _; _; "(L1"; "distance"; x; "over"; _; _; _ ] -> float_of_string x
  | _ -> Alcotest.failf "no L1 distance in %S" detail

(* Where a distribution holds a NaN the reference raises [Invalid_argument
   "index out of bounds"] (the L1 sum is NaN, so no outcome is picked as
   the worst), and where it holds an infinity it reports an infinite
   distance; [Equiv.check] reports both as inconclusive, so there the
   expected text is that verdict's. Any other reference exception is
   compared by its text. *)
let verdict_string original transformed =
  let show check =
    match check ~original ~transformed () with
    | v -> Verify.Verdict.to_string v
    | exception e -> Printexc.to_string e
  in
  let ours = show Verify.Equiv.check in
  let non_finite = "inconclusive: exact distributions are not finite" in
  let reference =
    match Equiv_ref.check ~original ~transformed () with
    | Verify.Verdict.Inequivalent { detail; _ } when not (Float.is_finite (l1_of detail)) ->
      non_finite
    | v -> Verify.Verdict.to_string v
    | exception Invalid_argument msg when String.equal msg "index out of bounds" -> non_finite
    | exception e -> Printexc.to_string e
  in
  if String.equal reference non_finite && String.starts_with ~prefix:non_finite ours then
    (ours, ours)
  else (ours, reference)

let prop_walker =
  QCheck.Test.make ~name:"walker = per-shot loop and branch recursion" ~count:1000
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let c = circuit seed in
      let sampled =
        List.for_all
          (fun shots ->
            let expected = Executor_ref.run ~jobs:1 ~seed ~shots c in
            List.for_all
              (fun jobs -> same_counts expected (Sim.Executor.run ~jobs ~seed ~shots c))
              [ 1; 2 ])
          shot_counts
      in
      let exact =
        same_dist (Equiv_ref.walk c) (Sim.Executor.exact ~max_branches:Equiv_ref.max_branches c)
      in
      let mutant = drop_gate c (seed mod max 1 (Array.length c.gates)) in
      let v_same, r_same = verdict_string c c and v_mut, r_mut = verdict_string c mutant in
      sampled && exact
      && String.equal v_same r_same
      && String.equal v_mut r_mut
      && same_counts
           (Executor_ref.distribution ~seed c)
           (Sim.Executor.distribution ~seed c))

(* Past the branch budget both give the same error. *)
let test_branch_budget () =
  let n = 6 in
  let round = List.concat_map (fun q -> [ Quantum.Gate.One_q (H, q); Measure (q, q) ]) (List.init n Fun.id) in
  let c =
    Quantum.Circuit.of_kinds ~num_qubits:n ~num_clbits:n
      (List.concat (List.init 3 (fun _ -> round)) @ [ Quantum.Gate.One_q (H, 0) ])
  in
  let expected = Equiv_ref.walk c in
  check bool "tripped" true (Result.is_error expected);
  check bool "same error" true
    (same_dist expected (Sim.Executor.exact ~max_branches:Equiv_ref.max_branches c))

(* [levels] measured levels on [n] wires, with an X on a spare wire
   conditioned on each outcome and a trailing block that measures the
   spare wires. The barrier keeps all [n] wires through compaction in
   [Executor.run]. *)
let wide ~n ~levels =
  Quantum.Circuit.of_kinds ~num_qubits:n ~num_clbits:levels
    ((Quantum.Gate.Barrier (List.init n Fun.id)
      :: List.concat
           (List.init levels (fun k ->
                [
                  Quantum.Gate.One_q (Ry (1.3 +. (0.1 *. float_of_int k)), k);
                  Measure (k, k);
                  If_x (k, levels + k);
                ])))
    @ List.init levels (fun k -> Quantum.Gate.Measure (levels + k, k)))

(* [c]'s walks replay and give what the frozen references give on
   [reference]. *)
let check_replays ~shots ~reference c =
  Obs.Metrics.reset ();
  let got = Sim.Executor.exact ~max_branches:Equiv_ref.max_branches c in
  check bool "exact replays" true (Obs.Metrics.count "sim.replays" > 0);
  check bool "exact = branch recursion" true (same_dist (Equiv_ref.walk reference) got);
  Obs.Metrics.reset ();
  let got = Sim.Executor.run ~jobs:1 ~seed:5 ~shots c in
  check bool "sampled replays" true (Obs.Metrics.count "sim.replays" > 0);
  check bool "sampled = per-shot loop" true
    (same_counts (Executor_ref.run ~jobs:1 ~seed:5 ~shots reference) got)

(* 21 qubits leave room for two saved states under the cap (2^22
   amplitudes), so the three branching levels rebuild the deepest nodes
   by replaying their outcome paths from a saved ancestor. *)
let test_replay () =
  let c = wide ~n:21 ~levels:3 in
  check_replays ~shots:16 ~reference:c c

(* 23 qubits (128 MiB a state) leave room for none: every second child
   is rebuilt by replaying its path from |0...0>, the outcome of the
   first level included. The references copy a state per branch and
   per shot, so they run on the 4-wire twin instead: the other 19 wires
   hold only zero amplitudes, and every kernel sums in index order, so
   they change no bit of any probability. *)
let test_replay_from_zero () =
  check_replays ~shots:8 ~reference:(wide ~n:4 ~levels:2) (wide ~n:23 ~levels:2)

let to_alcotest t =
  let (QCheck2.Test.Test cell) = t in
  let name = QCheck2.Test.get_name cell in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x7ee; Hashtbl.hash name |]) t

let () =
  Alcotest.run "outcome_tree"
    [
      ( "reference",
        [
          to_alcotest prop_walker;
          Alcotest.test_case "branch budget" `Quick test_branch_budget;
          Alcotest.test_case "replay past the saved-state cap" `Quick test_replay;
          Alcotest.test_case "replay from |0...0> with no saved state" `Quick
            test_replay_from_zero;
        ] );
    ]
