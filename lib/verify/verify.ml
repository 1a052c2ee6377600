module Verdict = Verdict
module Equiv = Equiv
module Probe = Probe
module Structural = Structural

type verdict = Verdict.t =
  | Equivalent
  | Inequivalent of Verdict.counterexample
  | Inconclusive of string

type level = Static | Sampled | Exact | Auto

let level_name = function
  | Static -> "static"
  | Sampled -> "sampled"
  | Exact -> "exact"
  | Auto -> "auto"

let level_of_string s =
  match String.lowercase_ascii s with
  | "static" | "structural" -> Ok Static
  | "sampled" | "probe" | "probabilistic" -> Ok Sampled
  | "exact" -> Ok Exact
  | "auto" -> Ok Auto
  | other ->
    Error
      (Printf.sprintf
         "unknown verification level %S (expected static | sampled | exact | \
          auto)"
         other)

type subject = {
  original : Quantum.Circuit.t;
  logical : Quantum.Circuit.t;
  physical : Quantum.Circuit.t;
  device : Hardware.Device.t;
  pairs : Structural.pair list option;
  commutable : Galg.Graph.t option;
}

(* Simulation width: what the state vector actually pays for, with
   routing SWAPs elided the same way the semantic checkers do. *)
let width c =
  (fst (Quantum.Circuit.compact_qubits (Quantum.Optimize.elide_swaps c)))
    .Quantum.Circuit.num_qubits

(* Qubits safe to perturb with a product-state prefix: a wire hosts the
   same logical qubit first on both sides exactly when that qubit is
   never a reuse destination (a dst's state is re-created by the reset,
   so its input is pinned to |0> by the transform's own contract). *)
let probe_inputs subject =
  match subject.pairs with
  | None -> []
  | Some pairs ->
    let dsts = List.map (fun (p : Structural.pair) -> p.Structural.dst) pairs in
    List.filter
      (fun q -> not (List.mem q dsts))
      (Quantum.Circuit.active_qubits subject.original)

let structural_verdict subject =
  Verdict.combine
    [
      (match (subject.commutable, subject.pairs) with
       | Some g, Some pairs -> Structural.check_commutable_pairs ~graph:g pairs
       | None, Some pairs ->
         Structural.check_pairs ~original:subject.original pairs
       | _, None -> Verdict.Equivalent);
      Structural.check_wellformed subject.original;
      Structural.check_wellformed subject.logical;
      Structural.check_wellformed subject.physical;
      Structural.check_coupling subject.device subject.physical;
      Structural.check_accounting ~logical:subject.original
        ~physical:subject.logical;
      Structural.check_accounting ~logical:subject.logical
        ~physical:subject.physical;
    ]

let run ?(seed = 1) level subject =
  Obs.Metrics.incr "verify.runs";
  Obs.Metrics.time "time.verify" @@ fun () ->
  let structural = structural_verdict subject in
  if Verdict.is_inequivalent structural || level = Static then structural
  else begin
    let probe ~product original transformed =
      (* Wide sides make every probe a full-width state-vector pass, so
         spend fewer probes there; input perturbation re-simulates the
         exact side per probe and is reserved for comfortable widths. *)
      let w = max (width original) (width transformed) in
      let config =
        {
          Probe.probes = (if w > 16 then 1 else Probe.default.Probe.probes);
          product_inputs =
            (if product && w <= 16 then probe_inputs subject else []);
        }
      in
      Probe.check ~config ~seed ~original ~transformed ()
    in
    let semantic ~product original transformed =
      match level with
      | Static -> Verdict.Equivalent
      | Sampled -> probe ~product original transformed
      | Exact -> Equiv.check ~original ~transformed ()
      | Auto ->
        (match Equiv.check ~original ~transformed () with
         | Verdict.Inconclusive _ -> probe ~product original transformed
         | v -> v)
    in
    let comparisons = ref [] in
    if subject.logical != subject.original then
      comparisons :=
        semantic ~product:true subject.original subject.logical :: !comparisons;
    comparisons :=
      semantic ~product:false subject.original subject.physical :: !comparisons;
    (* When the original itself cannot be simulated, still cross-check the
       transformed pair; combine keeps the Inconclusive from above so the
       verdict never overclaims. *)
    if
      width subject.original > Probe.max_qubits
      && subject.logical != subject.original
    then
      comparisons :=
        semantic ~product:false subject.logical subject.physical :: !comparisons;
    Verdict.combine (structural :: List.rev !comparisons)
  end
