(* Persistent Domain pool with a single-slot job queue.

   One parallel region ("job") is active at a time; submissions
   serialize on [submit]. A job is an index range [0, n) plus a
   range-grained closure; participants (the submitting domain and every
   worker) claim chunks of indices with an atomic cursor and write
   results into per-index slots, so neither scheduling nor completion
   order is observable. Workers park on a condition variable between
   jobs keyed by a generation counter.

   Chunks are the economic unit: a participant claims [chunk]
   consecutive indices and runs them in one closure call, so per-item
   dispatch overhead (atomic claim, tracing span, closure call) is paid
   once per chunk. When the caller does not pick a chunk size we
   auto-size to [max 1 (n / (8 * domains))] — 8 chunks per participant,
   enough slack to absorb imbalance without degenerating into per-item
   scheduling. Range-grained callers ([iter_ranges]) can hoist scratch
   allocation to once per chunk instead of once per item.

   Determinism does not rest on the scheduler: results are stored by
   index, reductions happen after the join in index order, and RNG
   streams are pre-split sequentially before dispatch. *)

type job = {
  run : int -> int -> unit;  (* execute items [lo, hi); writes only their slots *)
  n : int;
  chunk : int;
  budget : Budget.t;  (* checked before every chunk claim *)
  ctx : string option;  (* submitter's correlation id, for worker-side spans *)
  trace_ctx : Obs.Ctx.trace option;  (* submitter's trace context + open span *)
  next : int Atomic.t;  (* claim cursor *)
  in_flight : int Atomic.t;  (* participants currently inside a chunk *)
  failed : bool Atomic.t;  (* fast-path flag for [error] *)
  mutable error : (exn * Printexc.raw_backtrace) option;  (* under [m] *)
  mutable j_items : int;  (* items executed, under [stats_m] *)
  mutable j_chunks : int;  (* chunks executed, under [stats_m] *)
  mutable j_busy_s : float;  (* summed participant time, under [stats_m] *)
}

type job_stats = {
  job_items : int;
  job_chunk : int;
  job_chunks : int;
  job_wall_s : float;
  job_busy_s : float;
  job_utilization : float;
}

type stats = {
  domains : int;
  jobs : int;
  items : int;
  chunks : int;
  worker_items : int;
  caller_items : int;
  busy_s : float;
  wall_s : float;
  last_job : job_stats option;
}

type t = {
  n_domains : int;
  mutable workers : unit Domain.t array;
  m : Mutex.t;  (* job slot, generation, stopping, job.error *)
  work_cv : Condition.t;  (* workers: new generation or shutdown *)
  done_cv : Condition.t;  (* submitter: job may have finished *)
  mutable generation : int;
  mutable job : job option;
  mutable stopping : bool;
  submit : Mutex.t;  (* serializes parallel regions *)
  stats_m : Mutex.t;
  mutable jobs_count : int;
  mutable items_count : int;
  mutable chunks_count : int;
  mutable worker_items : int;
  mutable caller_items : int;
  mutable busy_s : float;
  mutable wall_s : float;
  mutable last_job : job_stats option;
}

(* True while this domain is executing a work item: nested entry points
   then run inline (sequentially) instead of deadlocking on [submit]. *)
let inside_region = Domain.DLS.new_key (fun () -> false)

let domains t = t.n_domains

let auto_chunk t n = max 1 (n / (8 * t.n_domains))

let record_error t job exn bt =
  Mutex.lock t.m;
  if job.error = None then job.error <- Some (exn, bt);
  Mutex.unlock t.m;
  Atomic.set job.failed true

(* Claim and run chunks until the cursor is exhausted (or the job
   failed). Every exit broadcasts [done_cv] so the submitter's completion
   wait can never miss the last decrement of [in_flight]. *)
let run_chunks t job ~worker =
  let items = ref 0 in
  let chunks = ref 0 in
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    if not (Atomic.get job.failed) then begin
      (* Cooperative deadline: an exhausted budget fails the job before
         the next chunk is claimed; chunks already in flight finish. *)
      if Budget.expired job.budget then
        record_error t job Budget.Deadline_exceeded (Printexc.get_callstack 0);
      Atomic.incr job.in_flight;
      let start = Atomic.fetch_and_add job.next job.chunk in
      if start >= job.n || Atomic.get job.failed then Atomic.decr job.in_flight
      else begin
        let stop = min job.n (start + job.chunk) in
        let exec () =
          Domain.DLS.set inside_region true;
          Fun.protect
            ~finally:(fun () -> Domain.DLS.set inside_region false)
            (fun () -> job.run start stop)
        in
        (* Each chunk is a span; on worker domains the submitter's
           correlation id is re-installed first so the span (and any
           logging inside the work item) carries the request id. *)
        let exec =
          if not (Obs.Trace.enabled ()) then exec
          else begin
            let traced () =
              Obs.Trace.with_span ~cat:"pool"
                ~args:
                  [ ("start", Obs.Fields.Int start); ("len", Obs.Fields.Int (stop - start)) ]
                "pool.chunk" exec
            in
            let traced =
              (* the submitter's trace context (with its open span as the
                 remote parent) makes worker-side chunk spans land in the
                 same distributed trace as the request that spawned them *)
              match job.trace_ctx with
              | Some tr when worker -> fun () -> Obs.Ctx.with_trace tr traced
              | _ -> traced
            in
            match job.ctx with
            | Some id when worker -> fun () -> Obs.Ctx.with_id id traced
            | _ -> traced
          end
        in
        (try
           exec ();
           items := !items + (stop - start);
           incr chunks
         with exn -> record_error t job exn (Printexc.get_raw_backtrace ()));
        Atomic.decr job.in_flight;
        loop ()
      end
    end
  in
  loop ();
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.lock t.m;
  Condition.broadcast t.done_cv;
  Mutex.unlock t.m;
  Mutex.lock t.stats_m;
  t.items_count <- t.items_count + !items;
  t.chunks_count <- t.chunks_count + !chunks;
  if worker then t.worker_items <- t.worker_items + !items
  else t.caller_items <- t.caller_items + !items;
  t.busy_s <- t.busy_s +. dt;
  job.j_items <- job.j_items + !items;
  job.j_chunks <- job.j_chunks + !chunks;
  job.j_busy_s <- job.j_busy_s +. dt;
  Mutex.unlock t.stats_m

let rec worker_loop t last_gen =
  Mutex.lock t.m;
  while (not t.stopping) && t.generation = last_gen do
    Condition.wait t.work_cv t.m
  done;
  if t.stopping then Mutex.unlock t.m
  else begin
    let gen = t.generation in
    let job = t.job in
    Mutex.unlock t.m;
    (* [job] can already be gone (finished without us) — then the cursor
       is exhausted and run_chunks is a no-op. *)
    (match job with Some j -> run_chunks t j ~worker:true | None -> ());
    worker_loop t gen
  end

let env_domains () =
  match Sys.getenv_opt "NBTI_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n when n > 0 -> Some n | _ -> None)
  | None -> None

let auto_domains () =
  match env_domains () with Some n -> n | None -> Domain.recommended_domain_count ()

let create ?domains () =
  let d = match domains with Some d -> d | None -> auto_domains () in
  if d < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let d = min d 64 in
  let t =
    {
      n_domains = d;
      workers = [||];
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      generation = 0;
      job = None;
      stopping = false;
      submit = Mutex.create ();
      stats_m = Mutex.create ();
      jobs_count = 0;
      items_count = 0;
      chunks_count = 0;
      worker_items = 0;
      caller_items = 0;
      busy_s = 0.0;
      wall_s = 0.0;
      last_job = None;
    }
  in
  t.workers <- Array.init (d - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  Mutex.lock t.m;
  let workers =
    if t.stopping then [||]
    else begin
      t.stopping <- true;
      Condition.broadcast t.work_cv;
      t.workers
    end
  in
  Mutex.unlock t.m;
  Array.iter Domain.join workers;
  if Array.length workers > 0 then t.workers <- [||]

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let job_finished job =
  (Atomic.get job.failed || Atomic.get job.next >= job.n) && Atomic.get job.in_flight = 0

(* Run [run] over chunk ranges covering [0, n): inline when the pool is
   sequential, stopped, tiny, or we are already inside a region on this
   domain. *)
let run_ranges t ~chunk ~budget ~n run =
  if n > 0 then begin
    let chunk =
      match chunk with Some c -> max 1 c | None -> auto_chunk t n
    in
    let inline =
      n <= 1 || t.n_domains = 1 || t.stopping || Domain.DLS.get inside_region
    in
    if inline then begin
      let lo = ref 0 in
      while !lo < n do
        Budget.check budget;
        let hi = min n (!lo + chunk) in
        run !lo hi;
        lo := hi
      done
    end
    else begin
      let job =
        {
          run;
          n;
          chunk;
          budget;
          ctx = (if Obs.Trace.enabled () then Obs.Ctx.current () else None);
          trace_ctx = (if Obs.Trace.enabled () then Obs.Trace.propagation_context () else None);
          next = Atomic.make 0;
          in_flight = Atomic.make 0;
          failed = Atomic.make false;
          error = None;
          j_items = 0;
          j_chunks = 0;
          j_busy_s = 0.0;
        }
      in
      let submit () =
        Mutex.lock t.submit;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.submit)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            Mutex.lock t.m;
            t.job <- Some job;
            t.generation <- t.generation + 1;
            Condition.broadcast t.work_cv;
            Mutex.unlock t.m;
            run_chunks t job ~worker:false;
            Mutex.lock t.m;
            while not (job_finished job) do
              Condition.wait t.done_cv t.m
            done;
            t.job <- None;
            let error = job.error in
            Mutex.unlock t.m;
            let wall = Unix.gettimeofday () -. t0 in
            Mutex.lock t.stats_m;
            t.jobs_count <- t.jobs_count + 1;
            t.wall_s <- t.wall_s +. wall;
            t.last_job <-
              Some
                {
                  job_items = job.j_items;
                  job_chunk = job.chunk;
                  job_chunks = job.j_chunks;
                  job_wall_s = wall;
                  job_busy_s = job.j_busy_s;
                  job_utilization =
                    (if wall <= 0.0 then 0.0
                     else job.j_busy_s /. (wall *. float_of_int t.n_domains));
                };
            Mutex.unlock t.stats_m;
            match error with
            | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
            | None -> ())
      in
      if Obs.Trace.enabled () then
        Obs.Trace.with_span ~cat:"pool"
          ~args:
            [
              ("items", Obs.Fields.Int n);
              ("chunk", Obs.Fields.Int chunk);
              ("domains", Obs.Fields.Int t.n_domains);
            ]
          "pool.job" submit
      else submit ()
    end
  end

let iter_ranges t ?chunk ?(budget = Budget.unlimited) n run =
  if n < 0 then invalid_arg "Pool.iter_ranges: negative length";
  run_ranges t ~chunk ~budget ~n run

(* Per-item frontends keep the historical contract of a budget poll per
   item (the range wrapper polls once more per chunk claim, which is
   harmless: [Budget.check] on an unlimited budget is a pattern match). *)
let run_indices t ~chunk ~budget ~n run =
  run_ranges t ~chunk ~budget ~n (fun lo hi ->
      for i = lo to hi - 1 do
        Budget.check budget;
        run i
      done)

let collect n fill =
  let out = Array.make n None in
  fill out;
  Array.map (function Some v -> v | None -> assert false) out

let mapi t ?chunk ?(budget = Budget.unlimited) f items =
  let n = Array.length items in
  if n = 0 then [||]
  else
    collect n (fun out ->
        run_indices t ~chunk ~budget ~n (fun i -> out.(i) <- Some (f i items.(i))))

let map t ?chunk ?budget f items = mapi t ?chunk ?budget (fun _ x -> f x) items

let init t ?chunk ?(budget = Budget.unlimited) n f =
  if n = 0 then [||]
  else if n < 0 then invalid_arg "Pool.init: negative length"
  else collect n (fun out -> run_indices t ~chunk ~budget ~n (fun i -> out.(i) <- Some (f i)))

let map_reduce t ?chunk ?budget ~map:f ~reduce ~init items =
  Array.fold_left reduce init (map t ?chunk ?budget f items)

(* --- RNG stream derivation --- *)

let split_streams rng n =
  if n < 0 then invalid_arg "Pool.split_streams: negative length";
  let a = Array.make n rng in
  for i = 0 to n - 1 do
    a.(i) <- Physics.Rng.split rng
  done;
  a

let init_rng t ?chunk ?budget ~rng n f =
  let rngs = split_streams rng n in
  init t ?chunk ?budget n (fun i -> f rngs.(i) i)

(* --- Utilization --- *)

let stats t =
  Mutex.lock t.stats_m;
  let s =
    {
      domains = t.n_domains;
      jobs = t.jobs_count;
      items = t.items_count;
      chunks = t.chunks_count;
      worker_items = t.worker_items;
      caller_items = t.caller_items;
      busy_s = t.busy_s;
      wall_s = t.wall_s;
      last_job = t.last_job;
    }
  in
  Mutex.unlock t.stats_m;
  s

let utilization (s : stats) =
  if s.wall_s <= 0.0 || s.domains = 0 then 0.0
  else s.busy_s /. (s.wall_s *. float_of_int s.domains)

let speedup_estimate (s : stats) = if s.wall_s <= 0.0 then 0.0 else s.busy_s /. s.wall_s

(* --- The process-wide shared pool --- *)

let default_pool : t option ref = ref None
let default_m = Mutex.create ()
let exit_hook_installed = ref false

let install_exit_hook () =
  if not !exit_hook_installed then begin
    exit_hook_installed := true;
    at_exit (fun () ->
        Mutex.lock default_m;
        let p = !default_pool in
        default_pool := None;
        Mutex.unlock default_m;
        Option.iter shutdown p)
  end

let default () =
  Mutex.lock default_m;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      let p = create () in
      default_pool := Some p;
      install_exit_hook ();
      p
  in
  Mutex.unlock default_m;
  p

let configure_default ~domains =
  if domains < 1 then invalid_arg "Pool.configure_default: domains must be >= 1";
  Mutex.lock default_m;
  let old = !default_pool in
  let fresh = create ~domains () in
  default_pool := Some fresh;
  install_exit_hook ();
  Mutex.unlock default_m;
  Option.iter shutdown old
