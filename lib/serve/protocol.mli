(** The service wire protocol: one JSON object per message, one
    response message per request, over either {!Transport} (newline
    framing on Unix sockets, length-prefixed on TCP).

    Request shape (fields beyond [op] are optional unless noted):

    {v
    {"op":"compile"|"verify"|"simulate"|"stats"|"health"|"shutdown",
     "proto": <int>,                   -- protocol version (default 1)
     "id": <any JSON, echoed back>,
     "bench": "<benchmark name>",      -- XOR bench registry, or
     "qasm3": "<OpenQASM 3 source>",   -- an inline circuit
     "strategy": "sr"|"baseline"|"qs-max-reuse"|"qs-min-depth"
                |"qs-best-fidelity"|<int qubit budget>,
     "deadline_ms": <int>,             -- per-request budget
     "qasm": true,                     -- include compiled QASM-3
     "level": "<verify level>",        -- verify only (default auto)
     "shots": <int>, "seed": <int>,    -- simulate only
     "fallback": true,                 -- degradation ladder
     "no_cache": true}                 -- bypass the cache
    v}

    Responses are [{"id":..,"proto":2,"ok":true,"op":..,
    "cache":"hit"|"miss"|"none","result":{..}}] or [{"id":..,"proto":2,
    "ok":false,"error":{"stage":..,"site":..,"detail":..,
    "recoverable":..}}]. The [result] object is the cached unit: a
    cache hit replays it byte-identically — and version bumps only ever
    add top-level fields, never touch [result].

    Versioning: requests without ["proto"] are version 1 (every PR 6
    client); the server answers any [proto <= version] request and
    rejects newer ones with a structured error (stage
    ["serve.protocol"], site ["request.version"]) so a too-new client
    fails loudly instead of mis-parsing. *)

(** The protocol version this build speaks (2). *)
val version : int

type op = Compile | Verify | Simulate | Stats | Health | Shutdown

val op_name : op -> string

type request = {
  op : op;
  proto : int;  (** claimed protocol version; 1 when absent *)
  id : Json.t;  (** echoed back verbatim; [Null] when absent *)
  bench : string option;
  qasm3 : string option;
  strategy : Caqr.Pipeline.strategy;  (** default [Sr] *)
  deadline_ms : int option;
  emit_qasm : bool;
  level : Verify.level;  (** default [Auto] *)
  shots : int;  (** default 1024 *)
  seed : int;  (** default 1 *)
  fallback : bool;
  no_cache : bool;
}

(** [of_line line] parses one request line. Unknown [op]s, malformed
    JSON and wrong-typed fields are reported with the offending token;
    unknown fields are ignored (forward compatibility). *)
val of_line : string -> (request, string) result

(** [response ~id fields] / [error_response ~id e] assemble one response
    line (no trailing newline). *)
val response : id:Json.t -> (string * Json.t) list -> string

val error_response : id:Json.t -> Guard.Error.t -> string
