(* The compilation service: JSON wire format, canonical circuit digests,
   option fingerprints, the two-tier content-addressed cache, the
   socket-free request handler, and one end-to-end exchange over a real
   Unix-domain socket. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* The [result] object is the cached unit; everything after its key is
   the byte-identity surface a cache hit must replay. *)
let result_part line =
  match find_sub line "\"result\":" with
  | Some i -> String.sub line i (String.length line - i)
  | None -> Alcotest.failf "no result object in %s" line

let fresh_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "caqr-serve-%d-%s-%d" (Unix.getpid ()) tag !counter)
    in
    Unix.mkdir d 0o755;
    d

(* ---- Serve.Json ---- *)

module J = Serve.Json

let sample =
  J.Obj
    [
      ("id", J.Int 7);
      ("name", J.String "bv");
      ("ok", J.Bool true);
      ("none", J.Null);
      ("xs", J.List [ J.Int 1; J.Float 0.5; J.String "a\"b\\c\n" ]);
      ("nested", J.Obj [ ("z", J.Int 1); ("a", J.Int 2) ]);
    ]

let test_json_roundtrip () =
  let s = J.to_string sample in
  (match J.parse s with
  | Ok j -> check bool "parse(emit) is identity" true (j = sample)
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e);
  (* Field order is preserved verbatim, not sorted. *)
  check bool "object order preserved" true
    (contains s "{\"z\":1,\"a\":2}")

let test_json_numbers () =
  check bool "bare int parses as Int" true (J.parse "42" = Ok (J.Int 42));
  check bool "negative int" true (J.parse "-7" = Ok (J.Int (-7)));
  check bool "decimal parses as Float" true (J.parse "2.5" = Ok (J.Float 2.5));
  check bool "exponent parses as Float" true
    (J.parse "1e2" = Ok (J.Float 100.0));
  check string "non-finite floats emit null" "null" (J.to_string (J.Float nan));
  check string "infinite floats emit null" "null"
    (J.to_string (J.Float infinity))

let test_json_string_escapes () =
  check string "emitter escapes" "\"a\\\"b\\\\c\\n\\t\""
    (J.to_string (J.String "a\"b\\c\n\t"));
  check bool "control chars as \\u" true
    (J.to_string (J.String "\001") = "\"\\u0001\"");
  check bool "\\uXXXX decodes" true
    (J.parse "\"\\u0041\"" = Ok (J.String "A"));
  (* A surrogate pair must decode to one UTF-8 code point. *)
  check bool "surrogate pair decodes to UTF-8" true
    (J.parse "\"\\ud83d\\ude00\"" = Ok (J.String "\xf0\x9f\x98\x80"))

let test_json_errors () =
  let is_err = function Error _ -> true | Ok _ -> false in
  check bool "trailing garbage rejected" true (is_err (J.parse "1 2"));
  check bool "unterminated string rejected" true (is_err (J.parse "\"abc"));
  check bool "bad literal rejected" true (is_err (J.parse "nul"));
  check bool "lone surrogate rejected" true (is_err (J.parse "\"\\ud83d\""));
  check bool "unclosed object rejected" true (is_err (J.parse "{\"a\":1"));
  (match J.parse "[1,2" with
  | Error e -> check bool "error carries offset" true (contains e "offset")
  | Ok _ -> Alcotest.fail "expected parse error")

let test_json_accessors () =
  check bool "member hit" true (J.member "id" sample = Some (J.Int 7));
  check bool "member miss" true (J.member "zzz" sample = None);
  check bool "string_field" true (J.string_field "name" sample = Some "bv");
  check bool "int_field rejects strings" true (J.int_field "name" sample = None);
  check bool "bool_field" true (J.bool_field "ok" sample = Some true)

(* ---- Quantum.Circuit.digest ---- *)

let bell_kinds =
  Quantum.Gate.
    [ One_q (H, 0); Cx (0, 1); Measure (0, 0); Measure (1, 1) ]

let test_digest_invariance () =
  let via_kinds =
    Quantum.Circuit.of_kinds ~num_qubits:2 ~num_clbits:2 bell_kinds
  in
  let module B = Quantum.Circuit.Builder in
  let b = B.create ~num_qubits:2 ~num_clbits:2 in
  B.h b 0;
  B.cx b 0 1;
  B.measure b 0 0;
  B.measure b 1 1;
  let via_builder = B.build b in
  check string "builder and of_kinds digest equal"
    (Quantum.Circuit.digest via_kinds)
    (Quantum.Circuit.digest via_builder);
  (* Round-tripping through the QASM-3 emission must not move the
     digest: it is an address for the circuit, not its spelling. *)
  match Quantum.Qasm_parser.parse (Quantum.Qasm.to_string via_kinds) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e.Guard.Error.detail
  | Ok back ->
    check string "digest survives QASM round-trip"
      (Quantum.Circuit.digest via_kinds)
      (Quantum.Circuit.digest back)

let test_digest_sensitivity () =
  let mk kinds = Quantum.Circuit.of_kinds ~num_qubits:2 ~num_clbits:2 kinds in
  let base = mk bell_kinds in
  let swapped =
    mk Quantum.Gate.[ Cx (0, 1); One_q (H, 0); Measure (0, 0); Measure (1, 1) ]
  in
  check bool "gate order matters" true
    (Quantum.Circuit.digest base <> Quantum.Circuit.digest swapped);
  let rz th = mk Quantum.Gate.[ One_q (Rz th, 0) ] in
  check bool "angles are bit-exact" true
    (Quantum.Circuit.digest (rz 0.1) <> Quantum.Circuit.digest (rz (0.1 +. 1e-12)));
  let wide = Quantum.Circuit.of_kinds ~num_qubits:3 ~num_clbits:2 bell_kinds in
  check bool "widths matter" true
    (Quantum.Circuit.digest base <> Quantum.Circuit.digest wide)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "golden"

let test_digest_golden_distinct () =
  let files =
    Sys.readdir golden_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".qasm")
    |> List.sort compare
  in
  check bool "all golden artifacts present" true (List.length files >= 35);
  let digests =
    List.map
      (fun f ->
        match Quantum.Qasm_parser.parse (read_file (Filename.concat golden_dir f)) with
        | Ok c -> (f, Quantum.Circuit.digest c)
        | Error e -> Alcotest.failf "%s failed to parse: %s" f e.Guard.Error.detail)
      files
  in
  (* Artifacts of different benchmarks must never share a content
     address, or the cache would conflate compiled programs. Two
     strategies may legitimately converge on the same circuit for the
     same benchmark (cone and gidnet often land exactly on the QS
     artifact); the cache separates those by strategy fingerprint, not
     by digest. *)
  let benchmark_of f =
    match String.index_opt f '.' with
    | Some i -> String.sub f 0 i
    | None -> f
  in
  List.iteri
    (fun i (fi, di) ->
      List.iteri
        (fun j (fj, dj) ->
          if i < j && di = dj && benchmark_of fi <> benchmark_of fj then
            Alcotest.failf "digest collision between %s and %s" fi fj)
        digests)
    digests

(* ---- Caqr.Pipeline.options_fingerprint ---- *)

let test_fingerprint () =
  let fp = Caqr.Pipeline.options_fingerprint in
  let d = Caqr.Pipeline.default in
  check string "deterministic" (fp d) (fp d);
  check bool "verify level is semantic" true
    (fp d <> fp { d with Caqr.Pipeline.verify = Some Verify.Auto });
  check bool "fallback is semantic" true
    (fp d <> fp { d with Caqr.Pipeline.fallback = true });
  (* Execution policy must not fragment the cache: the report is
     byte-identical for every jobs value. *)
  check string "jobs is not semantic" (fp d)
    (fp { d with Caqr.Pipeline.jobs = 8 })

(* ---- Serve.Protocol ---- *)

let test_protocol_defaults () =
  match Serve.Protocol.of_line {|{"op":"compile","bench":"BV_10"}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok r ->
    check bool "op" true (r.Serve.Protocol.op = Serve.Protocol.Compile);
    check bool "bench" true (r.Serve.Protocol.bench = Some "BV_10");
    check bool "id defaults to null" true (r.Serve.Protocol.id = J.Null);
    check bool "strategy defaults to sr" true
      (r.Serve.Protocol.strategy = Caqr.Pipeline.Sr);
    check int "shots default" 1024 r.Serve.Protocol.shots;
    check bool "no deadline by default" true
      (r.Serve.Protocol.deadline_ms = None);
    check bool "cache on by default" true (not r.Serve.Protocol.no_cache)

let test_protocol_rejects () =
  let is_err = function Error _ -> true | Ok _ -> false in
  let p = Serve.Protocol.of_line in
  check bool "non-JSON rejected" true (is_err (p "hello"));
  check bool "missing op rejected" true (is_err (p "{}"));
  check bool "unknown op rejected" true (is_err (p {|{"op":"teleport"}|}));
  check bool "wrong-typed field rejected" true
    (is_err (p {|{"op":"compile","deadline_ms":"fast"}|}));
  check bool "bad strategy rejected" true
    (is_err (p {|{"op":"compile","strategy":"qs-fastest"}|}));
  (* Unknown fields are ignored for forward compatibility. *)
  check bool "unknown field tolerated" true
    (not (is_err (p {|{"op":"stats","future_knob":1}|})));
  check bool "int strategy is a qubit target" true
    (match p {|{"op":"compile","bench":"BV_10","strategy":6}|} with
    | Ok r -> r.Serve.Protocol.strategy = Caqr.Pipeline.Qs_target 6
    | Error _ -> false)

(* ---- Serve.Cache ---- *)

let test_cache_key () =
  let k = Serve.Cache.key ~op:"compile" ~digest:"d" ~fingerprint:"f" in
  check string "key is stable" k
    (Serve.Cache.key ~op:"compile" ~digest:"d" ~fingerprint:"f");
  check int "key is an MD5 hex" 32 (String.length k);
  check bool "op separates keys" true
    (k <> Serve.Cache.key ~op:"verify" ~digest:"d" ~fingerprint:"f");
  check bool "digest separates keys" true
    (k <> Serve.Cache.key ~op:"compile" ~digest:"d2" ~fingerprint:"f");
  check bool "fingerprint separates keys" true
    (k <> Serve.Cache.key ~op:"compile" ~digest:"d" ~fingerprint:"f2");
  (* No separator ambiguity: shifting a byte across the component
     boundary must not produce the same key. *)
  check bool "components are framed" true
    (Serve.Cache.key ~op:"compilex" ~digest:"d" ~fingerprint:"f"
    <> Serve.Cache.key ~op:"compile" ~digest:"xd" ~fingerprint:"f")

let test_cache_memory_tier () =
  let c = Serve.Cache.create ~mem_capacity:8 () in
  check bool "empty cache misses" true (Serve.Cache.find c "k0" = None);
  Serve.Cache.store c "k0" "v0";
  check bool "stores then hits" true (Serve.Cache.find c "k0" = Some "v0");
  Serve.Cache.store c "k0" "v0'";
  check bool "store overwrites" true (Serve.Cache.find c "k0" = Some "v0'");
  let stats = Serve.Cache.stats c in
  check int "one miss counted" 1 (List.assoc "misses" stats);
  check int "two hits counted" 2 (List.assoc "hits" stats)

let test_cache_lru () =
  let c = Serve.Cache.create ~mem_capacity:8 () in
  for i = 1 to 8 do
    Serve.Cache.store c (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i)
  done;
  (* Touch k1 so k2 becomes the least recently used entry. *)
  check bool "k1 present" true (Serve.Cache.find c "k1" = Some "v1");
  Serve.Cache.store c "k9" "v9";
  check bool "recently-used entry survives" true
    (Serve.Cache.find c "k1" = Some "v1");
  check bool "LRU entry evicted" true (Serve.Cache.find c "k2" = None);
  check int "one eviction counted" 1
    (List.assoc "evictions" (Serve.Cache.stats c))

let test_cache_lru_bound_random () =
  let c = Serve.Cache.create ~mem_capacity:16 () in
  let prng = ref 12345 in
  let next () =
    prng := (!prng * 1103515245 + 12347) land 0x3FFFFFFF;
    !prng
  in
  for _ = 1 to 500 do
    let k = Printf.sprintf "k%d" (next () mod 64) in
    match Serve.Cache.find c k with
    | Some _ -> ()
    | None -> Serve.Cache.store c k ("v:" ^ k)
  done;
  let stats = Serve.Cache.stats c in
  check bool "memory tier bounded by capacity" true
    (List.assoc "mem_entries" stats <= 16);
  check bool "evictions happened" true (List.assoc "evictions" stats > 0)

let test_cache_disk_tier () =
  let dir = fresh_dir "disk" in
  let a = Serve.Cache.create ~mem_capacity:8 ~dir () in
  Serve.Cache.store a "deadbeef" "payload-bytes";
  check bool "entry file uses the key name" true
    (Sys.file_exists (Filename.concat dir "deadbeef.cache"));
  (* A fresh instance (new process in real life) must serve the entry
     from disk and promote it into memory. *)
  let b = Serve.Cache.create ~mem_capacity:8 ~dir () in
  check bool "disk survives the instance" true
    (Serve.Cache.find b "deadbeef" = Some "payload-bytes");
  let stats = Serve.Cache.stats b in
  check int "counted as a disk hit" 1 (List.assoc "disk_hits" stats);
  check int "and as a hit" 1 (List.assoc "hits" stats);
  check bool "promoted: second find needs no disk" true
    (Serve.Cache.find b "deadbeef" = Some "payload-bytes");
  check int "disk hits unchanged after promotion" 1
    (List.assoc "disk_hits" (Serve.Cache.stats b))

let test_cache_crash_safety () =
  let dir = fresh_dir "crash" in
  (* A crashed writer leaves a dot-prefixed temp file; it must never be
     served, and must not block later stores of the same key. *)
  let oc = open_out (Filename.concat dir ".deadbeef.cache.tmp") in
  output_string oc "torn write";
  close_out oc;
  let c = Serve.Cache.create ~mem_capacity:8 ~dir () in
  check bool "temp garbage is not an entry" true
    (Serve.Cache.find c "deadbeef" = None);
  Serve.Cache.store c "deadbeef" "good";
  let fresh = Serve.Cache.create ~mem_capacity:8 ~dir () in
  check bool "store works despite leftover temp" true
    (Serve.Cache.find fresh "deadbeef" = Some "good")

(* ---- Serve.Server.handle_line: the socket-free request core ---- *)

let server ?(config = Serve.Server.default_config) () =
  Serve.Server.create config

let test_handler_cache_hit_byte_identical () =
  let t = server () in
  let req = {|{"id":1,"op":"compile","bench":"BV_10","strategy":"sr"}|} in
  let cold, stop1 = Serve.Server.handle_line t req in
  let warm, stop2 = Serve.Server.handle_line t req in
  check bool "compile does not stop the daemon" false (stop1 || stop2);
  check bool "cold response is a miss" true (contains cold "\"cache\":\"miss\"");
  check bool "warm response is a hit" true (contains warm "\"cache\":\"hit\"");
  check string "result object replays byte-identically" (result_part cold)
    (result_part warm);
  check bool "result names the benchmark" true
    (contains cold "\"benchmark\":\"BV_10\"")

let test_handler_no_cache () =
  let t = server () in
  let req = {|{"op":"compile","bench":"BV_10","no_cache":true}|} in
  let r1, _ = Serve.Server.handle_line t req in
  let r2, _ = Serve.Server.handle_line t req in
  check bool "bypass never hits" true
    (contains r1 "\"cache\":\"none\"" && contains r2 "\"cache\":\"none\"");
  check string "but stays deterministic" (result_part r1) (result_part r2)

(* Every named strategy owns its own cache line: compiling the same
   benchmark under each must be a fresh miss, and each warm repeat a
   byte-identical hit. The options fingerprint carries the strategy
   name, so two engines that emit the same circuit (cone and gidnet
   often land exactly on the QS artifact) still never share an entry. *)
let test_handler_strategy_cache_lines () =
  let t = server () in
  List.iter
    (fun (name, _) ->
      let req =
        Printf.sprintf {|{"op":"compile","bench":"BV_10","strategy":"%s"}|}
          name
      in
      let cold, _ = Serve.Server.handle_line t req in
      check bool (name ^ " cold is a miss") true
        (contains cold "\"cache\":\"miss\"");
      check bool (name ^ " result names its strategy") true
        (contains cold (Printf.sprintf "\"strategy\":\"%s\"" name));
      let warm, _ = Serve.Server.handle_line t req in
      check bool (name ^ " warm is a hit") true
        (contains warm "\"cache\":\"hit\"");
      check string (name ^ " replay is byte-identical") (result_part cold)
        (result_part warm))
    Caqr.Pipeline.all_strategies

let test_handler_deadline_keeps_serving () =
  let t = server () in
  let doomed =
    {|{"id":"slow","op":"compile","bench":"Multiply_13","strategy":"qs-max-reuse","deadline_ms":0}|}
  in
  let failed, stop = Serve.Server.handle_line t doomed in
  check bool "deadline trip does not stop the daemon" false stop;
  check bool "structured failure" true (contains failed "\"ok\":false");
  check bool "id echoed on failure" true (contains failed "\"id\":\"slow\"");
  check bool "error names the deadline" true (contains failed "deadline");
  check bool "budget trips are recoverable" true
    (contains failed "\"recoverable\":true");
  (* The very next request on the same server must succeed: the scoped
     budget died with its request. *)
  let ok, _ =
    Serve.Server.handle_line t {|{"id":"next","op":"compile","bench":"BV_10"}|}
  in
  check bool "daemon keeps serving after a trip" true (contains ok "\"ok\":true")

let test_handler_admission_and_errors () =
  (* create floors the admission cap at 1024 bytes, so exceed that. *)
  let t =
    server
      ~config:{ Serve.Server.default_config with max_request_bytes = 64 } ()
  in
  let oversized =
    Printf.sprintf {|{"op":"compile","qasm3":"%s"}|} (String.make 2048 'x')
  in
  let r, stop = Serve.Server.handle_line t oversized in
  check bool "oversized rejected, daemon alive" false stop;
  check bool "oversized is a structured error" true
    (contains r "\"ok\":false" && contains r "serve.admission"
    && contains r "1024 bytes");
  let bad, _ = Serve.Server.handle_line t "not json at all" in
  check bool "parse failure is a structured error" true
    (contains bad "\"ok\":false");
  let nobench, _ = Serve.Server.handle_line t {|{"op":"compile"}|} in
  check bool "missing circuit is a structured error" true
    (contains nobench "\"ok\":false");
  let unknown, _ =
    Serve.Server.handle_line t {|{"op":"compile","bench":"NoSuch_99"}|}
  in
  check bool "unknown benchmark is a structured error" true
    (contains unknown "\"ok\":false" && contains unknown "NoSuch_99")

let test_handler_deadline_clamped () =
  (* With max_deadline_ms = 0, even a generous requested deadline is
     clamped to an already-expired budget and must trip. *)
  let t =
    server
      ~config:{ Serve.Server.default_config with max_deadline_ms = Some 0 } ()
  in
  let r, _ =
    Serve.Server.handle_line t
      {|{"op":"compile","bench":"Multiply_13","strategy":"qs-max-reuse","deadline_ms":60000}|}
  in
  check bool "requested deadline clamped by the admission cap" true
    (contains r "\"ok\":false" && contains r "deadline")

let test_handler_verify_and_simulate () =
  let t = server () in
  let v, _ =
    Serve.Server.handle_line t
      {|{"op":"verify","bench":"BV_10","strategy":"sr"}|}
  in
  check bool "verify carries a verdict" true
    (contains v "\"verdict\":\"equivalent\"");
  let s, _ =
    Serve.Server.handle_line t
      {|{"op":"simulate","bench":"BV_10","shots":64,"seed":3}|}
  in
  check bool "simulate carries counts" true
    (contains s "\"ok\":true" && contains s "\"counts\":");
  let s', _ =
    Serve.Server.handle_line t
      {|{"op":"simulate","bench":"BV_10","shots":64,"seed":3}|}
  in
  check bool "simulation results cache too" true (contains s' "\"cache\":\"hit\"");
  check string "and replay byte-identically" (result_part s) (result_part s')

let test_handler_qasm3_input () =
  let t = server () in
  let qasm =
    "OPENQASM 3.0;\\ninclude \\\"stdgates.inc\\\";\\nqubit[2] q;\\nbit[2] c;\\nh q[0];\\ncx q[0], q[1];\\nc[0] = measure q[0];\\nc[1] = measure q[1];"
  in
  let req = Printf.sprintf {|{"op":"compile","qasm3":"%s"}|} qasm in
  let r1, _ = Serve.Server.handle_line t req in
  check bool "inline QASM compiles" true (contains r1 "\"ok\":true");
  (* Same circuit, different spelling: content addressing must hit. *)
  let req2 =
    Printf.sprintf {|{"op":"compile","future":1,"qasm3":"%s"}|} qasm
  in
  let r2, _ = Serve.Server.handle_line t req2 in
  check bool "content-addressed hit across spellings" true
    (contains r2 "\"cache\":\"hit\"");
  check string "identical result" (result_part r1) (result_part r2)

let test_handler_stats_and_shutdown () =
  let t = server () in
  ignore (Serve.Server.handle_line t {|{"op":"compile","bench":"BV_10"}|});
  let s, stop = Serve.Server.handle_line t {|{"op":"stats"}|} in
  check bool "stats does not stop the daemon" false stop;
  check bool "stats embeds the metrics snapshot" true (contains s "\"counters\"");
  check bool "stats names the engine version" true
    (contains s Caqr.Version.engine);
  check bool "stats exposes cache counters" true (contains s "\"misses\"");
  let bye, stop = Serve.Server.handle_line t {|{"op":"shutdown"}|} in
  check bool "shutdown acknowledges" true (contains bye "\"ok\":true");
  check bool "shutdown stops the daemon" true stop

let test_handler_batch_order () =
  let t = server () in
  let lines =
    [
      {|{"id":10,"op":"compile","bench":"BV_10"}|};
      {|{"id":11,"op":"stats"}|};
      {|{"id":12,"op":"compile","bench":"XOR_5"}|};
    ]
  in
  let responses, stop = Serve.Server.handle_batch t lines in
  check bool "batch does not stop" false stop;
  check int "one response per request" 3 (List.length responses);
  List.iteri
    (fun i r ->
      check bool
        (Printf.sprintf "response %d keeps request order" i)
        true
        (contains r (Printf.sprintf "\"id\":%d" (10 + i))))
    responses;
  let _, stop =
    Serve.Server.handle_batch t [ {|{"op":"stats"}|}; {|{"op":"shutdown"}|} ]
  in
  check bool "stop flag is the disjunction" true stop

(* A named-input hit reads the entry the server resolved on first
   sight: it neither rebuilds the benchmark registry nor re-digests the
   circuit, so what it allocates is decode, key, lookup and encode
   alone (about 1,040 words), whatever the circuit's size. A counted
   gate on the calling domain's minor words, not a timer; rebuilding the
   registry costs about 25,000 words on its own. *)
let hit_words_bound = 4_000.

let counted_hits t req =
  let cold, _ = Serve.Server.handle_line t req in
  check bool "first sight is a miss" true (contains cold "\"cache\":\"miss\"");
  let first, _ = Serve.Server.handle_line t req in
  check bool "repeat is a hit" true (contains first "\"cache\":\"hit\"");
  for i = 1 to 100 do
    let before = Gc.minor_words () in
    let hit, _ = Serve.Server.handle_line t req in
    let words = Gc.minor_words () -. before in
    if words > hit_words_bound then
      Alcotest.failf "%s: hit %d allocated %.0f minor words (bound %.0f)" req
        i words hit_words_bound;
    check string "hit is byte-identical to the first hit" first hit
  done

let test_handler_hit_words () =
  let t = server () in
  counted_hits t {|{"id":1,"op":"compile","bench":"QAOA25-0.3","strategy":"cone"}|};
  counted_hits t
    {|{"id":2,"op":"compile","bench":"cuccaro-64","strategy":"baseline"}|}

(* Two pool domains first-sight one large name at once: both may build
   its entry, one insert wins, and every response equals a sequential
   replay on a fresh server. *)
let test_handler_first_sight_race () =
  let lines =
    List.concat_map
      (fun strategy ->
        List.map
          (fun qasm ->
            Printf.sprintf
              {|{"id":"%s-%b","op":"compile","bench":"cuccaro-64","strategy":"%s","qasm":%b}|}
              strategy qasm strategy qasm)
          [ false; true ])
      [ "baseline"; "sr"; "cone"; "gidnet" ]
  in
  let t = server ~config:{ Serve.Server.default_config with jobs = 2 } () in
  let responses, _ = Serve.Server.handle_batch t lines in
  let replay = server () in
  List.iter2
    (fun line resp ->
      check bool "batched request succeeded" true (contains resp "\"ok\":true");
      check string "batch equals sequential replay"
        (fst (Serve.Server.handle_line replay line))
        resp)
    lines responses

(* Unknown names are not remembered: each gets today's structured error,
   and a later hit on a real name still reads its entry in O(1). *)
let test_handler_unknown_names () =
  let t = server () in
  for i = 1 to 1000 do
    let name = Printf.sprintf "NoSuch_%d" i in
    let r, _ =
      Serve.Server.handle_line t
        (Printf.sprintf {|{"op":"compile","bench":"%s"}|} name)
    in
    check string "unknown benchmark error"
      (Printf.sprintf
         {|{"id":null,"proto":2,"ok":false,"error":{"stage":"serve.request","site":"request.input","detail":"unknown benchmark \"%s\"","recoverable":false}}|}
         name)
      r
  done;
  counted_hits t {|{"id":3,"op":"compile","bench":"BV_10","strategy":"sr"}|}

(* ---- Serve.Transport: address grammar and framing ---- *)

module T = Serve.Transport

let test_addr_grammar () =
  check bool "bare path is a unix socket" true
    (T.addr_of_string "/tmp/x.sock" = Ok (T.Unix "/tmp/x.sock"));
  check bool "unix: scheme" true
    (T.addr_of_string "unix:/tmp/x.sock" = Ok (T.Unix "/tmp/x.sock"));
  check bool "tcp: scheme" true
    (T.addr_of_string "tcp:127.0.0.1:7391" = Ok (T.Tcp ("127.0.0.1", 7391)));
  check bool "tcp port 0 allowed" true
    (T.addr_of_string "tcp:localhost:0" = Ok (T.Tcp ("localhost", 0)));
  let rejected s =
    match T.addr_of_string s with Error _ -> true | Ok _ -> false
  in
  check bool "empty rejected" true (rejected "");
  check bool "unknown scheme rejected" true (rejected "udp:1.2.3.4:1");
  check bool "missing port rejected" true (rejected "tcp:127.0.0.1");
  check bool "bad port rejected" true (rejected "tcp:127.0.0.1:http");
  check bool "out-of-range port rejected" true (rejected "tcp:127.0.0.1:70000");
  check bool "empty unix path rejected" true (rejected "unix:");
  (* to_string is the parseable canonical spelling. *)
  List.iter
    (fun a ->
      check bool
        ("round-trip " ^ T.addr_to_string a)
        true
        (T.addr_of_string (T.addr_to_string a) = Ok a))
    [ T.Unix "/tmp/x.sock"; T.Tcp ("127.0.0.1", 7391) ];
  check bool "framing follows transport" true
    (T.framing_of_addr (T.Unix "p") = T.Newline
    && T.framing_of_addr (T.Tcp ("h", 1)) = T.Length_prefixed)

(* One loopback pair: messages with embedded newlines — fatal to the
   Unix-socket framing — round-trip untouched through length-prefixed
   TCP frames. *)
let test_tcp_framing_roundtrip () =
  let listener = T.bind (T.Tcp ("127.0.0.1", 0)) in
  Fun.protect
    ~finally:(fun () -> T.close_listener listener)
    (fun () ->
      let client = T.connect (T.bound_addr listener) in
      let server =
        match T.accept ~timeout_s:5.0 listener with
        | Some c -> c
        | None -> Alcotest.fail "accept timed out"
      in
      Fun.protect
        ~finally:(fun () ->
          T.close client;
          T.close server)
        (fun () ->
          let messages =
            [ "plain"; "two\nlines\n"; ""; String.make 70000 'x' ]
          in
          T.send client messages;
          List.iter
            (fun expected ->
              match T.recv_batch ~max:1 server with
              | T.Msgs [ got ] ->
                check string "framed message intact" expected got
              | T.Msgs _ | T.Eof | T.Timeout ->
                Alcotest.fail "expected one message before eof")
            messages;
          (* And back, as one pipelined batch. *)
          T.send server messages;
          (match T.recv_batch ~timeout_s:5.0 ~max:10 client with
          | T.Msgs got ->
            check int "batch drains the pipeline" (List.length messages)
              (List.length got);
            List.iter2 (fun e g -> check string "batched intact" e g) messages
              got
          | T.Eof | T.Timeout -> Alcotest.fail "expected a batch")))

let test_newline_framing_rejects_embedded_newline () =
  let dir = fresh_dir "frame" in
  let path = Filename.concat dir "t.sock" in
  let listener = T.bind (T.Unix path) in
  Fun.protect
    ~finally:(fun () -> T.close_listener listener)
    (fun () ->
      let client = T.connect (T.Unix path) in
      Fun.protect
        ~finally:(fun () -> T.close client)
        (fun () ->
          match T.send client [ "a\nb" ] with
          | () -> Alcotest.fail "embedded newline must be rejected"
          | exception Invalid_argument _ -> ()))

(* ---- end to end over real transports ---- *)

let run_daemon config =
  let t = Serve.Server.create config in
  let bound = Atomic.make None in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Server.run t ~ready:(fun a -> Atomic.set bound (Some a)))
  in
  let rec await k =
    match Atomic.get bound with
    | Some a -> a
    | None when k > 0 ->
      Unix.sleepf 0.01;
      await (k - 1)
    | None -> Alcotest.fail "daemon never became ready"
  in
  (t, daemon, await 500)

let shutdown_daemon ~addr daemon =
  (match Serve.Client.call ~addr [ {|{"op":"shutdown"}|} ] with
  | [ bye ] -> check bool "clean shutdown" true (contains bye "\"ok\":true")
  | other -> Alcotest.failf "expected 1 response, got %d" (List.length other));
  Domain.join daemon

let end_to_end addr_of_dir =
  let dir = fresh_dir "e2e" in
  let addr = addr_of_dir dir in
  let _t, daemon, addr =
    run_daemon
      {
        Serve.Server.default_config with
        addr;
        cache_dir = Some (Filename.concat dir "cache");
      }
  in
  let compile = {|{"id":1,"op":"compile","bench":"BV_10","strategy":"sr"}|} in
  (match Serve.Client.call_retry ~addr [ compile ] with
  | [ cold ] ->
    check bool "cold compile over the wire" true
      (contains cold "\"ok\":true" && contains cold "\"cache\":\"miss\"");
    check bool "response carries proto 2" true (contains cold "\"proto\":2");
    (* One pipelined connection: repeat + stats arrive as a batch. *)
    (match Serve.Client.call ~addr [ compile; {|{"id":2,"op":"stats"}|} ] with
    | [ warm; stats ] ->
      check bool "warm compile hits" true (contains warm "\"cache\":\"hit\"");
      check string "replay is byte-identical" (result_part cold)
        (result_part warm);
      check bool "stats over the wire" true (contains stats "\"counters\"")
    | other ->
      Alcotest.failf "expected 2 responses, got %d" (List.length other))
  | other -> Alcotest.failf "expected 1 response, got %d" (List.length other));
  shutdown_daemon ~addr daemon;
  check bool "disk tier populated" true
    (Sys.file_exists (Filename.concat dir "cache"));
  addr

let test_socket_end_to_end () =
  let socket = ref "" in
  let _ =
    end_to_end (fun dir ->
        socket := Filename.concat dir "caqr.sock";
        T.Unix !socket)
  in
  check bool "socket file removed on exit" false (Sys.file_exists !socket)

let test_tcp_end_to_end () =
  match end_to_end (fun _dir -> T.Tcp ("127.0.0.1", 0)) with
  | T.Tcp (_, port) -> check bool "ephemeral port resolved" true (port > 0)
  | T.Unix _ -> Alcotest.fail "expected a tcp address"

(* N parallel clients, interleaved compile/verify/simulate: every
   response must be byte-identical (in its result object) to a
   sequential replay of the same request — the determinism contract
   under concurrency. *)
let concurrent_vs_sequential addr =
  let requests k =
    [
      Printf.sprintf
        {|{"id":%d,"op":"compile","bench":"BV_10","strategy":"sr"}|} (10 * k);
      Printf.sprintf
        {|{"id":%d,"op":"compile","bench":"XOR_5","strategy":"qs-max-reuse"}|}
        ((10 * k) + 1);
      Printf.sprintf
        {|{"id":%d,"op":"simulate","bench":"BV_10","shots":32,"seed":3}|}
        ((10 * k) + 2);
    ]
  in
  let _t, daemon, addr =
    run_daemon { Serve.Server.default_config with addr; handler_domains = 4 }
  in
  let clients =
    List.init 4 (fun k ->
        Domain.spawn (fun () -> Serve.Client.call_retry ~addr (requests k)))
  in
  let answers = List.map Domain.join clients in
  shutdown_daemon ~addr daemon;
  (* Sequential baseline on a fresh server: same bytes, no concurrency.
     The result object is a pure function of the request, so a separate
     instance replays it exactly. *)
  let baseline = Serve.Server.create Serve.Server.default_config in
  List.iteri
    (fun k responses ->
      check int "one response per request" 3 (List.length responses);
      List.iter2
        (fun req resp ->
          check bool "concurrent request succeeded" true
            (contains resp "\"ok\":true");
          let seq, _ = Serve.Server.handle_line baseline req in
          check string "byte-identical to sequential replay"
            (result_part seq) (result_part resp))
        (requests k) responses)
    answers

let test_concurrent_clients_unix () =
  let dir = fresh_dir "conc" in
  concurrent_vs_sequential (T.Unix (Filename.concat dir "caqr.sock"))

let test_concurrent_clients_tcp () =
  concurrent_vs_sequential (T.Tcp ("127.0.0.1", 0))

(* ---- back-pressure ---- *)

(* Deterministic overload: occupy every admission slot by hand, then
   observe the structured rejection — no timing involved. *)
let test_overload_rejection () =
  let t =
    server ~config:{ Serve.Server.default_config with max_inflight = 1 } ()
  in
  let gate = Serve.Server.gate t in
  check bool "slot taken" true (Guard.Gate.try_enter gate);
  let rejected, stop =
    Serve.Server.handle_line t {|{"id":9,"op":"compile","bench":"BV_10"}|}
  in
  check bool "overload does not stop the daemon" false stop;
  check bool "rejected with ok:false" true (contains rejected "\"ok\":false");
  check bool "stage serve.admission" true
    (contains rejected "\"stage\":\"serve.admission\"");
  check bool "site request.overload" true
    (contains rejected "\"site\":\"request.overload\"");
  check bool "recoverable: the client may retry" true
    (contains rejected "\"recoverable\":true");
  check bool "id echoed" true (contains rejected "\"id\":9");
  (* stats and shutdown stay answerable under overload. *)
  let stats, _ = Serve.Server.handle_line t {|{"op":"stats"}|} in
  check bool "stats bypasses the gate" true (contains stats "\"ok\":true");
  check bool "stats reports inflight" true (contains stats "\"inflight\":1");
  Guard.Gate.leave gate;
  let ok, _ =
    Serve.Server.handle_line t {|{"id":10,"op":"compile","bench":"BV_10"}|}
  in
  check bool "slot released, request admitted" true (contains ok "\"ok\":true");
  check bool "rejection counted" true
    (Obs.Metrics.snapshot ()
     |> fun s ->
     List.exists
       (fun (k, v) -> k = "serve.rejected.overload" && v >= 1)
       s.Obs.Metrics.counters)

(* ---- protocol versioning ---- *)

let test_proto_versioning () =
  let t = server () in
  (* A proto-1 request (no field) and an explicit proto-2 request both
     get answered; the response always declares proto 2. *)
  let v1, _ = Serve.Server.handle_line t {|{"id":1,"op":"stats"}|} in
  check bool "v1 request answered" true (contains v1 "\"ok\":true");
  check bool "response declares proto" true (contains v1 "\"proto\":2");
  let v2, _ = Serve.Server.handle_line t {|{"id":2,"op":"stats","proto":2}|} in
  check bool "v2 request answered" true (contains v2 "\"ok\":true");
  let future, stop =
    Serve.Server.handle_line t {|{"id":3,"op":"stats","proto":3}|}
  in
  check bool "future proto does not stop the daemon" false stop;
  check bool "future proto rejected" true (contains future "\"ok\":false");
  check bool "version rejection site" true
    (contains future "\"site\":\"request.version\"");
  check bool "rejection echoes the id" true (contains future "\"id\":3");
  let bad, _ = Serve.Server.handle_line t {|{"op":"stats","proto":"two"}|} in
  check bool "non-integer proto rejected" true
    (contains bad "\"site\":\"request.parse\"")

(* ---- disk budget ---- *)

let entry_count dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cache")
  |> List.length

let test_cache_disk_budget () =
  let dir = fresh_dir "budget" in
  (* mem tier off: every find goes to disk, so eviction is observable. *)
  let c =
    Serve.Cache.create ~mem_capacity:0 ~dir ~disk_budget_bytes:64 ()
  in
  let v = String.make 32 'v' in
  List.iter (fun k -> Serve.Cache.store c k v) [ "k0"; "k1"; "k2"; "k3" ];
  check int "budget keeps two 32-byte entries" 2 (entry_count dir);
  check bool "oldest evicted" true (Serve.Cache.find c "k0" = None);
  check bool "newest survives" true (Serve.Cache.find c "k3" = Some v);
  let stats = Serve.Cache.stats c in
  let stat name = List.assoc name stats in
  check int "disk_entries tracked" 2 (stat "disk_entries");
  check int "disk_bytes tracked" 64 (stat "disk_bytes");
  check int "disk_evictions counted" 2 (stat "disk_evictions");
  (* A value larger than the whole budget never touches the tier. *)
  Serve.Cache.store c "huge" (String.make 100 'h');
  check bool "oversized value skipped" true
    (Serve.Cache.find c "huge" = None);
  check int "tier untouched by oversized store" 2 (entry_count dir);
  (* The same budget through a daemon's config: real compile responses
     overflow a 600-byte tier, which evicts and stays under the cap. *)
  let t =
    Serve.Server.create
      {
        Serve.Server.default_config with
        Serve.Server.cache_dir = Some (fresh_dir "server-budget");
        disk_budget_bytes = Some 600;
      }
  in
  List.iter
    (fun name ->
      let r, _ =
        Serve.Server.handle_line t
          (Printf.sprintf {|{"op":"compile","bench":%S}|} name)
      in
      check bool (name ^ " compiles") true (contains r "\"ok\":true"))
    [ "BV_10"; "CC_10"; "Multiply_13"; "RD-32"; "XOR_5" ];
  let server_stat name =
    List.assoc name (Serve.Cache.stats (Serve.Server.cache t))
  in
  check bool "server tier evicted" true (server_stat "disk_evictions" >= 1);
  check bool "server tier under its budget" true
    (server_stat "disk_bytes" <= 600)

(* A restart rebuilds the index by mtime, so the budget keeps holding
   across processes and the LRU order survives as recorded on disk. *)
let test_cache_disk_budget_restart () =
  let dir = fresh_dir "budget-restart" in
  let c = Serve.Cache.create ~mem_capacity:0 ~dir () in
  let v = String.make 32 'v' in
  (* Distinct mtimes so the restart scan sees the write order. *)
  Serve.Cache.store c "old" v;
  Unix.sleepf 0.02;
  Serve.Cache.store c "mid" v;
  Unix.sleepf 0.02;
  Serve.Cache.store c "new" v;
  let c2 = Serve.Cache.create ~mem_capacity:0 ~dir ~disk_budget_bytes:70 () in
  let stat name = List.assoc name (Serve.Cache.stats c2) in
  check int "restart scan finds the entries" 3 (stat "disk_entries");
  check int "restart scan sums the bytes" 96 (stat "disk_bytes");
  (* First store over budget evicts the stalest survivors. *)
  Serve.Cache.store c2 "k4" v;
  check bool "within budget after eviction" true (stat "disk_bytes" <= 70);
  check bool "oldest entry went first" true
    (Serve.Cache.find c2 "old" = None);
  check bool "newest written survives" true
    (Serve.Cache.find c2 "k4" = Some v)

(* A CLEAN shutdown flushes the exact LRU order — recency earned by
   reads included — to an index file the next create consumes. Without
   it, the mtime scan above would evict the read-refreshed entry. *)
let test_cache_index_preserves_read_recency () =
  let dir = fresh_dir "index-restart" in
  let v = String.make 32 'v' in
  let c = Serve.Cache.create ~mem_capacity:0 ~dir ~disk_budget_bytes:70 () in
  Serve.Cache.store c "a" v;
  Unix.sleepf 0.02;
  Serve.Cache.store c "b" v;
  (* Reading [a] makes [b] the least-recently-used — a fact only the
     flushed index can carry across the restart (a's mtime is older). *)
  check bool "read refreshes a" true (Serve.Cache.find c "a" = Some v);
  Serve.Cache.flush c;
  check bool "index written" true
    (Sys.file_exists (Filename.concat dir "index.caqr"));
  let c2 = Serve.Cache.create ~mem_capacity:0 ~dir ~disk_budget_bytes:70 () in
  check bool "index consumed" false
    (Sys.file_exists (Filename.concat dir "index.caqr"));
  Serve.Cache.store c2 "c" v;
  check bool "stale-by-recency b evicted" true
    (Serve.Cache.find c2 "b" = None);
  check bool "read-refreshed a survives the restart" true
    (Serve.Cache.find c2 "a" = Some v)

(* ---- health verb ---- *)

let test_health_verb () =
  let t =
    server ~config:{ Serve.Server.default_config with max_inflight = 1 } ()
  in
  let r, stop = Serve.Server.handle_line t {|{"id":1,"op":"health"}|} in
  check bool "health does not stop the daemon" false stop;
  check bool "health ok" true (contains r "\"ok\":true");
  check bool "reports serving" true (contains r {|"status":"serving"|});
  check bool "reports uptime" true (contains r "\"uptime_s\"");
  check bool "reports in-flight" true (contains r "\"inflight\"");
  (* Liveness must stay observable under overload: health bypasses the
     admission gate exactly like stats. *)
  let gate = Serve.Server.gate t in
  check bool "slot taken" true (Guard.Gate.try_enter gate);
  let r2, _ = Serve.Server.handle_line t {|{"id":2,"op":"health"}|} in
  check bool "health bypasses the gate" true (contains r2 "\"ok\":true");
  Guard.Gate.leave gate;
  Serve.Server.drain t;
  check bool "drain flag raised" true (Serve.Server.draining t);
  let r3, _ = Serve.Server.handle_line t {|{"id":3,"op":"health"}|} in
  check bool "reports draining" true (contains r3 {|"status":"draining"|})

(* ---- hostile clients: stalls, partial frames, vanishing peers ---- *)

let raw_connect addr =
  let fd, sa =
    match addr with
    | T.Unix path ->
      (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | T.Tcp (host, port) ->
      ( Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
        Unix.ADDR_INET (Unix.inet_addr_of_string host, port) )
  in
  Unix.connect fd sa;
  fd

let raw_send fd s =
  try ignore (Unix.write_substring fd s 0 (String.length s))
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* Everything the server sends until it closes or [timeout_s] passes. *)
let raw_drain ?(timeout_s = 3.0) fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0. then
      match Unix.select [ fd ] [] [] left with
      | [ _ ], _, _ ->
        let n =
          try Unix.read fd chunk 0 4096 with Unix.Unix_error _ -> 0
        in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      | _ -> ()
  in
  go ();
  Buffer.contents buf

(* Half a frame for each framing: a line with no newline, or a length
   prefix cut in two. *)
let half_frame = function
  | T.Unix _ -> {|{"id":1,"op":"comp|}
  | T.Tcp _ -> "\x00\x00"

(* A slow-loris peer holds half a frame past the connection deadline.
   The daemon must answer it with a structured request.timeout and close
   — while a healthy client connecting DURING the stall is served
   normally (the staller occupies one handler domain, not the daemon). *)
let slow_client_contained addr =
  let _t, daemon, addr =
    run_daemon
      {
        Serve.Server.default_config with
        addr;
        conn_timeout_ms = Some 400;
        handler_domains = 2;
      }
  in
  let fd = raw_connect addr in
  raw_send fd (half_frame addr);
  (match
     Serve.Client.call ~addr ~timeout_s:60.
       [ {|{"id":2,"op":"compile","bench":"BV_10"}|} ]
   with
  | [ r ] ->
    check bool "healthy client served during the stall" true
      (contains r "\"ok\":true")
  | other -> Alcotest.failf "expected 1 response, got %d" (List.length other));
  let observed = raw_drain fd in
  Unix.close fd;
  check bool "stall answered with a structured timeout" true
    (contains observed "request.timeout");
  check bool "timeout marked recoverable" true
    (contains observed "\"recoverable\":true");
  check bool "timeouts counted" true
    (Obs.Metrics.count "serve.conn.timeout" >= 1);
  shutdown_daemon ~addr daemon

let test_slow_client_unix () =
  let dir = fresh_dir "loris" in
  slow_client_contained (T.Unix (Filename.concat dir "caqr.sock"))

let test_slow_client_tcp () = slow_client_contained (T.Tcp ("127.0.0.1", 0))

(* A peer that sends one complete request plus a fragment of a second,
   then vanishes. The daemon must absorb the dead connection and keep
   serving fresh ones. *)
let mid_batch_disconnect addr =
  let _t, daemon, addr =
    run_daemon
      { Serve.Server.default_config with addr; handler_domains = 2 }
  in
  let whole = {|{"id":7,"op":"compile","bench":"BV_10"}|} in
  let fd = raw_connect addr in
  raw_send fd
    (T.encode ~framing:(T.framing_of_addr addr) whole
    ^ half_frame addr);
  Unix.close fd;
  (match
     Serve.Client.call_retry ~addr ~timeout_s:60.
       [ {|{"id":8,"op":"compile","bench":"BV_10"}|} ]
   with
  | [ r ] ->
    check bool "daemon survives a vanished peer" true
      (contains r "\"ok\":true")
  | other -> Alcotest.failf "expected 1 response, got %d" (List.length other));
  shutdown_daemon ~addr daemon

let test_mid_batch_disconnect_unix () =
  let dir = fresh_dir "vanish" in
  mid_batch_disconnect (T.Unix (Filename.concat dir "caqr.sock"))

let test_mid_batch_disconnect_tcp () =
  mid_batch_disconnect (T.Tcp ("127.0.0.1", 0))

(* ---- draining shutdown ---- *)

let test_drain_flushes_and_exits () =
  let dir = fresh_dir "drain" in
  let sock = Filename.concat dir "caqr.sock" in
  let cache = Filename.concat dir "cache" in
  let t, daemon, addr =
    run_daemon
      {
        Serve.Server.default_config with
        addr = T.Unix sock;
        cache_dir = Some cache;
      }
  in
  (* Populate the disk tier so the drain has an LRU order to persist. *)
  (match
     Serve.Client.call_retry ~addr
       [ {|{"id":1,"op":"compile","bench":"BV_10"}|} ]
   with
  | [ r ] -> check bool "compile before drain" true (contains r "\"ok\":true")
  | _ -> Alcotest.fail "expected 1 response");
  Serve.Server.drain t;
  (* run returns on its own: no shutdown verb, just the drain. *)
  Domain.join daemon;
  check bool "socket removed" false (Sys.file_exists sock);
  check bool "cache index flushed on drain" true
    (Sys.file_exists (Filename.concat cache "index.caqr"));
  check bool "new connections refused after drain" true
    (match Serve.Client.call ~addr [ {|{"op":"stats"}|} ] with
    | exception Unix.Unix_error _ -> true
    | exception Failure _ -> true
    | _ -> false)

(* The real signal path: SIGTERM lands on the process, the handler the
   daemon installed raises the drain flag, and run returns cleanly. *)
let test_sigterm_drains () =
  let dir = fresh_dir "sigterm" in
  let t, daemon, addr =
    run_daemon
      { Serve.Server.default_config with addr = T.Unix (Filename.concat dir "caqr.sock") }
  in
  (match Serve.Client.call_retry ~addr [ {|{"op":"health"}|} ] with
  | [ r ] -> check bool "daemon up before the signal" true (contains r "\"ok\":true")
  | _ -> Alcotest.fail "expected 1 response");
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Domain.join daemon;
  check bool "signal raised the drain flag" true (Serve.Server.draining t)

(* ---- stale Unix sockets ---- *)

let test_stale_socket_reclaimed () =
  let dir = fresh_dir "stale" in
  let path = Filename.concat dir "stale.sock" in
  (* Simulate a crashed daemon: the socket file exists, nobody listens. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  check bool "stale file present" true (Sys.file_exists path);
  let before = Obs.Metrics.count "serve.socket.reclaimed" in
  let l = T.bind (T.Unix path) in
  check int "reclaim counted" (before + 1)
    (Obs.Metrics.count "serve.socket.reclaimed");
  (* The rebound listener actually works. *)
  let client = Domain.spawn (fun () ->
      let fd = raw_connect (T.Unix path) in
      Unix.close fd)
  in
  (match T.accept ~timeout_s:5.0 l with
  | Some conn -> T.close conn
  | None -> Alcotest.fail "rebound listener never accepted");
  Domain.join client;
  T.close_listener l;
  T.close_listener l;
  (* idempotent *)
  check bool "path unlinked on close" false (Sys.file_exists path)

let test_live_socket_not_reclaimed () =
  let dir = fresh_dir "live" in
  let path = Filename.concat dir "live.sock" in
  let l = T.bind (T.Unix path) in
  (match T.bind (T.Unix path) with
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
  | l2 ->
    T.close_listener l2;
    Alcotest.fail "binding over a live daemon must fail");
  T.close_listener l

(* ---- client backoff ---- *)

let test_backoff_deterministic () =
  let a = Serve.Client.backoff_delays ~seed:5 8 in
  let b = Serve.Client.backoff_delays ~seed:5 8 in
  check (Alcotest.list (Alcotest.float 0.)) "same seed, same schedule" a b;
  check bool "different seed, different jitter" true
    (a <> Serve.Client.backoff_delays ~seed:6 8);
  List.iteri
    (fun k d ->
      let ceiling = Float.min 0.3 (0.02 *. (2. ** float_of_int k)) in
      check bool "delay inside the equal-jitter band" true
        (d >= (ceiling /. 2.) -. 1e-9 && d <= ceiling +. 1e-9))
    a

(* ---- wire-level chaos campaigns ---- *)

let wire_campaign transport () =
  let s = Wirefuzz.selftest ~seed:11 ~cases:100 ~transport () in
  check int "campaign ran every case" 100 s.Wirefuzz.cases;
  List.iter
    (fun (f : Wirefuzz.failure) ->
      Alcotest.failf "case %d (%s) broke a wire promise: %s"
        f.Wirefuzz.case_index
        (Wirefuzz.attack_name f.Wirefuzz.attack)
        f.Wirefuzz.message)
    s.Wirefuzz.failures

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "digest",
        [
          Alcotest.test_case "invariance" `Quick test_digest_invariance;
          Alcotest.test_case "sensitivity" `Quick test_digest_sensitivity;
          Alcotest.test_case "golden artifacts distinct" `Quick
            test_digest_golden_distinct;
        ] );
      ( "fingerprint",
        [ Alcotest.test_case "semantic fields only" `Quick test_fingerprint ] );
      ( "protocol",
        [
          Alcotest.test_case "defaults" `Quick test_protocol_defaults;
          Alcotest.test_case "rejects" `Quick test_protocol_rejects;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key" `Quick test_cache_key;
          Alcotest.test_case "memory tier" `Quick test_cache_memory_tier;
          Alcotest.test_case "lru recency" `Quick test_cache_lru;
          Alcotest.test_case "lru bound under random stream" `Quick
            test_cache_lru_bound_random;
          Alcotest.test_case "disk tier" `Quick test_cache_disk_tier;
          Alcotest.test_case "crash safety" `Quick test_cache_crash_safety;
          Alcotest.test_case "disk budget evicts lru" `Quick
            test_cache_disk_budget;
          Alcotest.test_case "disk budget survives restart" `Quick
            test_cache_disk_budget_restart;
          Alcotest.test_case "flushed index preserves read recency" `Quick
            test_cache_index_preserves_read_recency;
        ] );
      ( "transport",
        [
          Alcotest.test_case "addr grammar" `Quick test_addr_grammar;
          Alcotest.test_case "tcp framing roundtrip" `Quick
            test_tcp_framing_roundtrip;
          Alcotest.test_case "newline framing rejects newline" `Quick
            test_newline_framing_rejects_embedded_newline;
          Alcotest.test_case "stale unix socket reclaimed" `Quick
            test_stale_socket_reclaimed;
          Alcotest.test_case "live unix socket not reclaimed" `Quick
            test_live_socket_not_reclaimed;
        ] );
      ( "handler",
        [
          Alcotest.test_case "cache hit is byte-identical" `Quick
            test_handler_cache_hit_byte_identical;
          Alcotest.test_case "no_cache bypass" `Quick test_handler_no_cache;
          Alcotest.test_case "per-strategy cache lines" `Quick
            test_handler_strategy_cache_lines;
          Alcotest.test_case "deadline trips, daemon survives" `Quick
            test_handler_deadline_keeps_serving;
          Alcotest.test_case "admission and structured errors" `Quick
            test_handler_admission_and_errors;
          Alcotest.test_case "deadline clamped by cap" `Quick
            test_handler_deadline_clamped;
          Alcotest.test_case "verify and simulate" `Quick
            test_handler_verify_and_simulate;
          Alcotest.test_case "inline qasm3 content addressing" `Quick
            test_handler_qasm3_input;
          Alcotest.test_case "stats and shutdown" `Quick
            test_handler_stats_and_shutdown;
          Alcotest.test_case "batch keeps order" `Quick test_handler_batch_order;
          Alcotest.test_case "named hit allocates O(1) words" `Quick
            test_handler_hit_words;
          Alcotest.test_case "first-sight race equals replay" `Quick
            test_handler_first_sight_race;
          Alcotest.test_case "unknown names not remembered" `Quick
            test_handler_unknown_names;
          Alcotest.test_case "overload rejection" `Quick
            test_overload_rejection;
          Alcotest.test_case "protocol versioning" `Quick
            test_proto_versioning;
          Alcotest.test_case "health verb" `Quick test_health_verb;
        ] );
      ( "socket",
        [
          Alcotest.test_case "unix end to end" `Quick test_socket_end_to_end;
          Alcotest.test_case "tcp end to end" `Quick test_tcp_end_to_end;
          Alcotest.test_case "4 concurrent clients (unix)" `Quick
            test_concurrent_clients_unix;
          Alcotest.test_case "4 concurrent clients (tcp)" `Quick
            test_concurrent_clients_tcp;
        ] );
      ( "survival",
        [
          Alcotest.test_case "slow client contained (unix)" `Quick
            test_slow_client_unix;
          Alcotest.test_case "slow client contained (tcp)" `Quick
            test_slow_client_tcp;
          Alcotest.test_case "mid-batch disconnect (unix)" `Quick
            test_mid_batch_disconnect_unix;
          Alcotest.test_case "mid-batch disconnect (tcp)" `Quick
            test_mid_batch_disconnect_tcp;
          Alcotest.test_case "drain flushes and exits" `Quick
            test_drain_flushes_and_exits;
          Alcotest.test_case "sigterm drains" `Quick test_sigterm_drains;
          Alcotest.test_case "backoff schedule deterministic" `Quick
            test_backoff_deterministic;
          Alcotest.test_case "wire chaos campaign (unix)" `Slow
            (wire_campaign `Unix);
          Alcotest.test_case "wire chaos campaign (tcp)" `Slow
            (wire_campaign `Tcp);
        ] );
    ]
