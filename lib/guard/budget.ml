(* Cooperative budgets. The one deadline carrier is [scope], a
   domain-local absolute time (Domain.DLS). A long-lived server gives
   each request its own deadline here, so requests compiled on different
   domains never clobber each other the way a shared atomic would.
   [Exec.Pool] (at each call) and [Exec.Crew] (at creation) capture the
   caller's scope with [current] and re-install it in each worker
   domain, so fanned-out work is bounded too.

   [infinity] means disarmed, which keeps the disarmed checkpoint down
   to one DLS load and a float compare — no clock syscall. *)

type t = float (* absolute Unix time; infinity = no deadline *)

let scope = Domain.DLS.new_key (fun () -> infinity)

let unlimited = infinity

let make ?ms () =
  match ms with
  | None -> infinity
  | Some ms -> Unix.gettimeofday () +. (float_of_int (max 0 ms) /. 1000.)

let scoped b f =
  let saved = Domain.DLS.get scope in
  (* Nested scopes tighten, never extend. *)
  Domain.DLS.set scope (Float.min saved b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope saved) f

let current () = Domain.DLS.get scope

let has_deadline () = current () < infinity

let remaining_s () =
  let d = current () in
  if d = infinity then None
  else Some (Float.max 0. (d -. Unix.gettimeofday ()))

let fraction f =
  match remaining_s () with
  | None -> infinity
  | Some rem ->
    Unix.gettimeofday () +. (Float.max 0. (Float.min 1. f) *. rem)

let trip ~stage ~site detail =
  Obs.Metrics.incr "guard.budget.trips";
  raise (Error.Budget_exceeded (Error.v ~recoverable:true ~stage ~site detail))

let checkpoint ~stage ~site =
  let d = current () in
  if d < infinity && Unix.gettimeofday () > d then
    trip ~stage ~site "wall-clock deadline exceeded"

let ticker ~stage ~site ?limit () =
  let steps = ref 0 in
  fun () ->
    incr steps;
    (match limit with
     | Some l when !steps > l ->
       trip ~stage ~site
         (Printf.sprintf "step budget exceeded (limit %d)" l)
     | _ -> ());
    checkpoint ~stage ~site
