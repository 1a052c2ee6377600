(* Single source of truth for the engine version. Bump [string] whenever
   a change can alter any compiled artifact or report: the service cache
   folds [engine] into every key, so entries written by an older build
   become unreachable instead of being served stale. *)

let string = "1.9.0"
let engine = "caqr-" ^ string
