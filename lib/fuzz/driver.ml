type failure = {
  case_index : int;
  case_seed : int;
  oracle : Oracle.t;
  message : string;
  original_gates : int;
  minimized : Quantum.Circuit.t;
  corpus_file : string option;
}

type summary = {
  seed : int;
  cases : int;
  oracles : Oracle.t list;
  failures : failure list;
}

let run ?(config = Gen.default) ?(oracles = Oracle.all) ?corpus_dir ?jobs ~seed
    ~cases () =
  let master = Exec.Prng.make seed in
  (* Each case is a pure function of (master seed, index): generation
     uses [split master i], oracle simulation a sibling stream — so the
     batch fans out across the pool and the summary is byte-identical
     for any [jobs] value. Only the oracle battery and shrinking run in
     the workers; corpus writes happen afterwards, sequentially and in
     submission order, so two failures never race on the manifest. *)
  let check_case i =
    let rng = Exec.Prng.split master i in
    (* A stable per-case seed for the oracles' simulators and probes,
       drawn from a sibling stream so it never perturbs generation. *)
    let case_seed =
      Int64.to_int
        (Int64.logand (Exec.Prng.bits64 (Exec.Prng.split master (-i - 1))) 0x3FFFFFFFL)
    in
    let c = Gen.circuit config rng in
    Obs.Metrics.incr "fuzz.cases";
    List.filter_map
      (fun oracle ->
        match Oracle.check oracle ~seed:case_seed c with
        | Oracle.Pass -> None
        | Oracle.Fail message ->
          Obs.Metrics.incr "fuzz.failures";
          let still_fails c' =
            match Oracle.check oracle ~seed:case_seed c' with
            | Oracle.Fail _ -> true
            | Oracle.Pass -> false
          in
          let minimized, _checks = Shrink.minimize ~still_fails c in
          Some
            {
              case_index = i;
              case_seed;
              oracle;
              message;
              original_gates = Quantum.Circuit.gate_count c;
              minimized;
              corpus_file = None;
            })
      oracles
  in
  let failures =
    Exec.Pool.map ?jobs check_case (List.init cases Fun.id)
    |> List.concat
    |> List.map (fun f ->
           let corpus_file =
             Option.map
               (fun dir ->
                 (Corpus.add ~dir ~seed:f.case_seed ~oracle:f.oracle
                    ~note:f.message f.minimized)
                   .Corpus.file)
               corpus_dir
           in
           { f with corpus_file })
  in
  { seed; cases; oracles; failures }

let pp_summary ppf s =
  Format.fprintf ppf "fuzz: seed %d, %d cases, oracles [%s]@." s.seed s.cases
    (String.concat " " (List.map Oracle.name s.oracles));
  List.iter
    (fun f ->
      Format.fprintf ppf
        "  FAIL case %d (seed %d) oracle %s: %s@.    minimized %d -> %d \
         gates%s@."
        f.case_index f.case_seed (Oracle.name f.oracle) f.message
        f.original_gates
        (Quantum.Circuit.gate_count f.minimized)
        (match f.corpus_file with
         | Some file -> Printf.sprintf " (corpus: %s)" file
         | None -> ""))
    s.failures;
  if s.failures = [] then Format.fprintf ppf "  all oracles passed@."
  else
    Format.fprintf ppf "  %d failing case(s)@." (List.length s.failures)
