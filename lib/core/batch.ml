type job = {
  name : string;
  prepare : Vio_util.Budget.t -> Pipeline.prepared;
  models : Model.t list;
  budget : int option;
  timeout_ms : int option;
}

let job ?models ?budget ?timeout_ms ~name prepare =
  (match timeout_ms with
  | Some ms when ms < 1 -> invalid_arg "Batch.job: timeout_ms must be positive"
  | _ -> ());
  {
    name;
    prepare;
    models = Option.value ~default:Model.builtin models;
    budget;
    timeout_ms;
  }

let default_domains () = min 8 (Domain.recommended_domain_count ())

(* A worker domain per job slot is pure overhead past the hardware's
   parallelism; requests above it are clamped, not refused, and the
   effective value is what reports record. *)
let effective_domains = function
  | Some n when n >= 1 -> min n (Domain.recommended_domain_count ())
  | Some _ -> invalid_arg "Batch.run_isolated: domains must be positive"
  | None -> default_domains ()

(* One budget covers both bounds: the deterministic step limit (when
   set) and the wall-clock deadline, checked at the same charge points. *)
let run_job ~timeout_ms j =
  Vio_util.Failpoint.hit "batch.worker";
  let budget =
    match j.budget with
    | Some steps -> Vio_util.Budget.create ~timeout_ms steps
    | None -> Vio_util.Budget.timer ~timeout_ms ()
  in
  let p = j.prepare budget in
  List.map (fun m -> (m, Pipeline.verify_prepared ~model:m p)) j.models

(* The one worker pool: map [f] over [jobs] on up to [ndomains] domains,
   results in job order. Each worker claims the next unclaimed job from a
   shared counter; claims are atomic, every job runs on exactly one
   domain, and its result lands in its job's slot — so the output order
   (and, since each job is deterministic, its content) is independent of
   scheduling. [f] is [run_isolated_job], which turns whatever a job
   raises into a status, so no worker dies and every slot is filled. *)
let pool ~ndomains f jobs =
  let arr = Array.of_list jobs in
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (f arr.(i));
      worker ()
    end
  in
  let spawned =
    Array.init (max 0 (min ndomains n - 1)) (fun _ -> Domain.spawn worker)
  in
  worker ();
  Array.iter Domain.join spawned;
  Array.to_list (Array.map Option.get results)

type status =
  | Done of (Model.t * Pipeline.outcome) list
  | Timed_out of { stage : string; limit : int; used : int }
  | Quarantined of { attempts : int; error : string }

type isolated = {
  i_job : job;
  i_status : status;
  i_wall : float;
  i_attempts : int;
}

let default_timeout_ms = 60_000

let run_isolated_job ~retries ~backoff_ms ~default_ms j =
  let t0 = Unix.gettimeofday () in
  (* The supervisor guarantees every job a wall-clock bound: a job without
     its own [timeout_ms] inherits the run's. *)
  let timeout_ms = Option.value ~default:default_ms j.timeout_ms in
  let max_attempts = 1 + max 0 retries in
  (* Decorrelated jitter, seeded per job name: retry instants spread out
     instead of synchronizing across a wave of same-failure jobs, and a
     given job's schedule is reproducible run to run. *)
  let jit =
    lazy
      (Vio_util.Backoff.jitter ~base_ms:backoff_ms
         ~seed:(Hashtbl.hash j.name) ())
  in
  let wait _k = Vio_util.Backoff.sleep_ms (Vio_util.Backoff.jitter_ms (Lazy.force jit)) in
  let rec attempt k =
    match run_job ~timeout_ms j with
    | outcomes -> (Done outcomes, k)
    | exception Vio_util.Budget.Exhausted { stage; limit; used } ->
      (* Budgets are deterministic step counts: re-running the job would
         exhaust at exactly the same point, so a retry is pure waste. *)
      (Timed_out { stage; limit; used }, k)
    | exception exn when Pipeline.is_malformed exn ->
      (* So is a malformed trace: the same bytes fail the same way, and a
         retry would only add a backoff wait. *)
      (Quarantined { attempts = k; error = Printexc.to_string exn }, k)
    | exception Vio_util.Budget.Deadline_exceeded { stage; timeout_ms; elapsed_ms }
      ->
      (* A wall-clock overrun, unlike a step overrun, depends on machine
         load — worth retrying, with exponential backoff so a transiently
         overloaded host gets room to recover. *)
      if k < max_attempts then begin
        wait k;
        attempt (k + 1)
      end
      else
        (Timed_out { stage = stage ^ " (wall clock)"; limit = timeout_ms;
                     used = elapsed_ms }, k)
    | exception exn ->
      if k < max_attempts then begin
        wait k;
        attempt (k + 1)
      end
      else (Quarantined { attempts = k; error = Printexc.to_string exn }, k)
  in
  let status, attempts = attempt 1 in
  { i_job = j; i_status = status; i_wall = Unix.gettimeofday () -. t0;
    i_attempts = attempts }

let run_isolated ?domains ?(retries = 1) ?timeout_ms ?(backoff_ms = 0) jobs =
  let ndomains = effective_domains domains in
  if retries < 0 then invalid_arg "Batch.run_isolated: retries must be >= 0";
  if backoff_ms < 0 then
    invalid_arg "Batch.run_isolated: backoff_ms must be >= 0";
  (match timeout_ms with
  | Some ms when ms < 1 ->
    invalid_arg "Batch.run_isolated: timeout_ms must be positive"
  | _ -> ());
  let default_ms = Option.value ~default:default_timeout_ms timeout_ms in
  pool ~ndomains (run_isolated_job ~retries ~backoff_ms ~default_ms) jobs
