(* Protocol history: 1 = PR 6 (newline JSON over a Unix socket, no
   version field); 2 = this PR (responses carry "proto", servers reject
   requests claiming a newer version). Absence of "proto" in a request
   means 1, so v1 clients keep working unchanged. *)
let version = 2

type op = Compile | Verify | Simulate | Stats | Health | Shutdown

let op_name = function
  | Compile -> "compile"
  | Verify -> "verify"
  | Simulate -> "simulate"
  | Stats -> "stats"
  | Health -> "health"
  | Shutdown -> "shutdown"

let op_of_string = function
  | "compile" -> Ok Compile
  | "verify" -> Ok Verify
  | "simulate" -> Ok Simulate
  | "stats" -> Ok Stats
  | "health" -> Ok Health
  | "shutdown" -> Ok Shutdown
  | other -> Error (Printf.sprintf "unknown op %S" other)

type request = {
  op : op;
  proto : int;
  id : Json.t;
  bench : string option;
  qasm3 : string option;
  strategy : Caqr.Pipeline.strategy;
  deadline_ms : int option;
  emit_qasm : bool;
  level : Verify.level;
  shots : int;
  seed : int;
  fallback : bool;
  no_cache : bool;
}

let ( let* ) = Result.bind

(* A present-but-wrong-typed field is a hard error; an absent field
   falls back to its default. Unknown fields pass silently so older
   servers tolerate newer clients. *)
let typed_field name extract default j =
  match Json.member name j with
  | None -> Ok default
  | Some v ->
    (match extract v with
     | Some x -> Ok x
     | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let int_of = function Json.Int n -> Some n | _ -> None
let bool_of = function Json.Bool b -> Some b | _ -> None

let opt_string name j =
  match Json.member name j with
  | None -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S has the wrong type" name)

let of_line line =
  let* j =
    match Json.parse line with
    | Ok (Json.Obj _ as j) -> Ok j
    | Ok _ -> Error "request must be a JSON object"
    | Error msg -> Error ("bad JSON: " ^ msg)
  in
  let* op_s =
    match Json.string_field "op" j with
    | Some s -> Ok s
    | None -> Error "missing \"op\" field"
  in
  let* op = op_of_string op_s in
  let* proto =
    match Json.member "proto" j with
    | None -> Ok 1
    | Some (Json.Int n) when n >= 1 -> Ok n
    | Some _ -> Error "field \"proto\" must be a positive integer"
  in
  let id = Option.value ~default:Json.Null (Json.member "id" j) in
  let* bench = opt_string "bench" j in
  let* qasm3 = opt_string "qasm3" j in
  let* strategy =
    match Json.member "strategy" j with
    | None -> Ok Caqr.Pipeline.Sr
    (* The CLI's --strategy grammar: one name map in Pipeline. *)
    | Some (Json.String s) -> Caqr.Pipeline.strategy_of_name s
    | Some (Json.Int n) -> Ok (Caqr.Pipeline.Qs_target n)
    | Some _ -> Error "field \"strategy\" has the wrong type"
  in
  let* deadline_ms =
    match Json.member "deadline_ms" j with
    | None -> Ok None
    | Some (Json.Int n) when n >= 0 -> Ok (Some n)
    | Some _ -> Error "field \"deadline_ms\" must be a non-negative integer"
  in
  let* emit_qasm = typed_field "qasm" bool_of false j in
  let* level =
    match Json.member "level" j with
    | None -> Ok Verify.Auto
    | Some (Json.String s) ->
      (match Verify.level_of_string s with
       | Ok l -> Ok l
       | Error msg -> Error msg)
    | Some _ -> Error "field \"level\" has the wrong type"
  in
  let* shots = typed_field "shots" int_of 1024 j in
  let* shots =
    if shots > 0 then Ok shots else Error "field \"shots\" must be positive"
  in
  let* seed = typed_field "seed" int_of 1 j in
  let* fallback = typed_field "fallback" bool_of false j in
  let* no_cache = typed_field "no_cache" bool_of false j in
  Ok
    {
      op;
      proto;
      id;
      bench;
      qasm3;
      strategy;
      deadline_ms;
      emit_qasm;
      level;
      shots;
      seed;
      fallback;
      no_cache;
    }

let error_body (e : Guard.Error.t) =
  Json.Obj
    [
      ("stage", Json.String e.Guard.Error.stage);
      ("site", Json.String e.Guard.Error.site);
      ("detail", Json.String e.Guard.Error.detail);
      ("recoverable", Json.Bool e.Guard.Error.recoverable);
    ]

(* "proto" sits between "id" and the payload fields so the "result"
   object — the byte-identical cache unit — is untouched by version
   bumps. *)
let response ~id fields =
  Json.to_string
    (Json.Obj (("id", id) :: ("proto", Json.Int version) :: fields))

let error_response ~id e =
  response ~id [ ("ok", Json.Bool false); ("error", error_body e) ]
