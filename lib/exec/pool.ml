(* Deterministic work pool on OCaml 5 domains.

   The contract every caller relies on: for a fixed input the result is
   byte-identical for ANY [jobs] value, including 1. Three rules enforce
   it:

   - static partition: task [i]'s slot is fixed by its submission index,
     and each domain owns one contiguous block of indices — there is no
     shared queue, so which domain runs a task never depends on timing;
   - ordered merge: results come back in submission order, and the
     first raising task (in submission order, not completion order)
     determines the exception the caller sees;
   - seed independence: [map_seeded] derives task [i]'s PRNG as
     [Prng.split root i], a pure function of the master seed and the
     index, never of the executing domain or of sibling tasks.

   Domain-per-batch beats a shared work queue here because the tasks the
   compiler fans out (transpiling sweep candidates, fuzz cases, shot
   batches) are uniform enough that static slicing loses little to
   imbalance, and it needs no locks, no channels, and no domain-local
   state to reason about. *)

(* More domains than this buys nothing for our task sizes and makes
   spawn overhead visible. *)
let max_jobs = 16

let default_jobs () = max 1 (min max_jobs (Domain.recommended_domain_count ()))

type 'b slot =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

let clamp_jobs jobs n =
  let requested = match jobs with Some j -> j | None -> default_jobs () in
  max 1 (min max_jobs (min requested n))

(* Transient faults (a recoverable [Guard.Error], e.g. an injected
   [sim.shot] or [pool.task] fault) get a bounded retry. Determinism
   holds because tasks are pure functions of their inputs and an armed
   injection fires exactly once: the retry re-executes the same work
   with the fault already spent, so the retried result is the result
   the fault preempted. *)
let max_transient_retries = 2

let run_task f x =
  let rec attempt k =
    match
      Guard.Inject.hit "pool.task";
      f x
    with
    | v -> Done v
    | exception (Guard.Error.Guard_error e) when e.Guard.Error.recoverable && k < max_transient_retries ->
      Obs.Metrics.incr "guard.retries";
      attempt (k + 1)
    | exception e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  attempt 0

(* Each slot is written by exactly one domain and only read after
   [Domain.join], so the plain (non-atomic) array is race-free. *)
let run_array ?jobs f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let jobs = clamp_jobs jobs n in
    Obs.Metrics.incr "exec.pool.runs";
    Obs.Metrics.incr ~by:n "exec.pool.tasks";
    Obs.Metrics.incr ~by:jobs "exec.pool.domains";
    let results = Array.make n Pending in
    let elapsed = Array.make jobs 0. in
    (* Worker domains start with a fresh (disarmed) budget scope, so the
       caller's scoped deadline is captured here and re-installed in each
       spawned domain: a per-request budget bounds the request's fan-out
       too. *)
    let budget = Guard.Budget.current () in
    let work d =
      let t0 = Unix.gettimeofday () in
      for i = d * n / jobs to ((d + 1) * n / jobs) - 1 do
        results.(i) <- run_task f arr.(i)
      done;
      Unix.gettimeofday () -. t0
    in
    if jobs = 1 then elapsed.(0) <- work 0
    else begin
      let spawned =
        Array.init (jobs - 1) (fun d ->
            Domain.spawn (fun () ->
                Guard.Budget.scoped budget (fun () -> work (d + 1))))
      in
      elapsed.(0) <- work 0;
      Array.iteri (fun d h -> elapsed.(d + 1) <- Domain.join h) spawned
    end;
    (* Metrics are recorded from the calling domain only; the workers
       touched nothing but their own slots and their own clock. *)
    Array.iteri
      (fun d dt -> Obs.Metrics.add_time (Printf.sprintf "exec.domain%d.time" d) dt)
      elapsed;
    (* Submission-order merge: the first Failed slot (by index, not by
       completion time) wins. The re-raise is structured — it names the
       failing task's index and, for guard faults, keeps the inner
       stage/site so the supervisor can see which site actually blew
       up. [recoverable] is cleared: the bounded retry above is the
       only retry; an outer pool must not replay a whole batch. *)
    Array.mapi
      (fun i -> function
        | Done v -> v
        | Failed (e, bt) ->
          let base = Guard.Error.of_exn ~stage:"exec.pool" ~site:"pool.task" e in
          let err =
            {
              base with
              Guard.Error.detail =
                Printf.sprintf "task %d: %s" i base.Guard.Error.detail;
              recoverable = false;
            }
          in
          let wrapped =
            match e with
            | Guard.Error.Budget_exceeded _ -> Guard.Error.Budget_exceeded err
            | _ -> Guard.Error.Guard_error err
          in
          Printexc.raise_with_backtrace wrapped bt
        | Pending -> assert false)
      results
  end

let map ?jobs f xs = Array.to_list (run_array ?jobs f (Array.of_list xs))

let mapi ?jobs f xs =
  Array.to_list
    (run_array ?jobs
       (fun (i, x) -> f i x)
       (Array.of_list (List.mapi (fun i x -> (i, x)) xs)))

(* [Prng.split] reads only the immutable origin of the root, so handing
   the same root to every domain is safe. *)
let map_seeded ?jobs ~seed f xs =
  let root = Prng.make seed in
  mapi ?jobs (fun i x -> f (Prng.split root i) x) xs
