(* Operational limits; every limit violation maps to a structured
   [invalid_request] error, never a dropped daemon. *)
type limits = {
  max_line_bytes : int;
  max_batch_jobs : int;
  max_gates : int;
  default_timeout_ms : int option;
  shed_retry_after_ms : int;
}

let default_limits =
  {
    max_line_bytes = 4 * 1024 * 1024;
    max_batch_jobs = 64;
    max_gates = 1_000_000;
    default_timeout_ms = None;
    shed_retry_after_ms = 250;
  }

type t = {
  circuits : Circuits.t;
  prepared : Flow.Platform.prepared Cache.t;
  results : Json.t Cache.t;
  metrics : Metrics.t;
  registry : Obs.Registry.t;
  pool : Parallel.Pool.t;
  limits : limits;
  started_at : float;
  max_pending : int;
  mutable pending : int;
  admission : Mutex.t;
  mutable faults : Faults.t;
  mutable running : bool;
  mutable draining : bool;
  drain_timeout_ms : int;
  (* open connection threads; drain waits for this to reach zero *)
  mutable connections : int;
  state : Mutex.t;
  (* correlation ids for requests that carry no "id" field *)
  seq : int Atomic.t;
  mutable access_log : out_channel option;
  access_lock : Mutex.t;
  slo : Obs.Slo.t option;
}

(* Result-cache entries are JSON payloads; weigh them by their serialized
   size (plus a small per-entry overhead) so [result_max_bytes] tracks
   resident memory approximately. *)
let json_weight j = String.length (Json.to_string j) + 64

let uptime_s t = Unix.gettimeofday () -. t.started_at
let set_faults t faults = t.faults <- faults
let faults t = t.faults

let pending t =
  Mutex.lock t.admission;
  let p = t.pending in
  Mutex.unlock t.admission;
  p

let draining t =
  Mutex.lock t.state;
  let d = t.draining in
  Mutex.unlock t.state;
  d

let connections t =
  Mutex.lock t.state;
  let c = t.connections in
  Mutex.unlock t.state;
  c

(* --- Metrics registry --- *)

let register_collectors t =
  let r = t.registry in
  Obs.Registry.register r (fun () -> Metrics.registry_samples t.metrics);
  Obs.Registry.register_gauge r ~name:"nbti_uptime_seconds"
    ~help:"Seconds since the service was created." (fun () -> uptime_s t);
  Obs.Registry.register_gauge r ~name:"nbti_pending_requests"
    ~help:"Requests currently admitted to the compute path." (fun () -> float_of_int (pending t));
  Obs.Registry.register_gauge r ~name:"nbti_max_pending"
    ~help:"Admission bound on concurrent compute-path requests." (fun () ->
      float_of_int t.max_pending);
  Obs.Registry.register r (fun () ->
      Metrics.cache_samples "results" (Cache.stats t.results)
      @ Metrics.cache_samples "prepared" (Cache.stats t.prepared)
      @ Metrics.cache_samples "circuits" (Cache.stats (Circuits.cache t.circuits)));
  Obs.Registry.register r (fun () ->
      let s = Parallel.Pool.stats t.pool in
      [
        {
          Obs.Registry.name = "nbti_pool_domains";
          help = "Worker domains in the compute pool.";
          labels = [];
          value = Obs.Registry.Gauge (float_of_int s.Parallel.Pool.domains);
        };
        {
          Obs.Registry.name = "nbti_pool_utilization";
          help = "Fraction of pool wall time the workers were busy.";
          labels = [];
          value = Obs.Registry.Gauge (Parallel.Pool.utilization s);
        };
      ]);
  Obs.Registry.register r (fun () -> Obs.Trace.registry_samples ());
  (match t.slo with
  | None -> ()
  | Some slo -> Obs.Registry.register r (fun () -> Obs.Slo.registry_samples slo));
  Obs.Registry.register_gauge r ~name:"nbti_build_info"
    ~help:"Constant 1; build facts are the labels."
    ~labels:
      [
        ("ocaml_version", Sys.ocaml_version);
        ("os_type", Sys.os_type);
        ("word_size", string_of_int Sys.word_size);
        ("protocol_version", string_of_int Protocol.version);
      ]
    (fun () -> 1.0)

let create ?(result_capacity = 256) ?(result_max_bytes = 64 * 1024 * 1024)
    ?(prepared_capacity = 32) ?(max_pending = 64) ?(limits = default_limits)
    ?(faults = Faults.none) ?(drain_timeout_ms = 5000) ?pool ?slo () =
  let t =
    {
      circuits = Circuits.create ();
      prepared = Cache.create ~capacity:prepared_capacity ();
      results =
        Cache.create ~capacity:result_capacity ~max_bytes:result_max_bytes ~weight:json_weight ();
      metrics = Metrics.create ();
      registry = Obs.Registry.create ();
      pool = (match pool with Some p -> p | None -> Parallel.Pool.default ());
      limits;
      started_at = Unix.gettimeofday ();
      max_pending;
      pending = 0;
      admission = Mutex.create ();
      faults;
      running = false;
      draining = false;
      drain_timeout_ms;
      connections = 0;
      state = Mutex.create ();
      seq = Atomic.make 0;
      access_log = None;
      access_lock = Mutex.create ();
      slo;
    }
  in
  register_collectors t;
  Metrics.observe_cache "results" t.results;
  Metrics.observe_cache "prepared" t.prepared;
  Metrics.observe_cache "circuits" (Circuits.cache t.circuits);
  t

let registry t = t.registry

let set_access_log t oc =
  Mutex.lock t.access_lock;
  t.access_log <- Some oc;
  Mutex.unlock t.access_lock

(* One JSONL record per handled request. The channel is written under a
   mutex so concurrent connection threads never interleave records. *)
let access_log_write t ~cid ~endpoint ~ok ~elapsed_s ~error =
  Mutex.lock t.access_lock;
  (match t.access_log with
  | None -> ()
  | Some oc ->
    let fields =
      [
        ("ts", Json.Float (Unix.gettimeofday ()));
        ("cid", Json.String cid);
        ("endpoint", Json.String endpoint);
        ("ok", Json.Bool ok);
        ("elapsed_s", Json.Float elapsed_s);
      ]
      @ match error with None -> [] | Some code -> [ ("error", Json.String code) ]
    in
    (* A failing access-log disk never fails the request being logged. *)
    (try
       output_string oc (Json.to_string (Json.Assoc fields));
       output_char oc '\n';
       flush oc
     with Sys_error _ -> ()));
  Mutex.unlock t.access_lock

(* --- Bounded admission to the compute path --- *)

exception Overloaded

let sleep_ms ms = if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0)

let admit t =
  let forced_shed =
    List.fold_left
      (fun acc a ->
        match a with
        | Faults.Shed -> true
        | Faults.Delay_ms ms ->
          sleep_ms ms;
          acc
        | Faults.Fail | Faults.Truncate -> acc)
      false
      (Faults.fire t.faults ~site:"admission")
  in
  Mutex.lock t.admission;
  let ok = (not forced_shed) && t.pending < t.max_pending in
  if ok then t.pending <- t.pending + 1;
  Mutex.unlock t.admission;
  if not ok then begin
    Metrics.incr_counter t.metrics "shed";
    raise Overloaded
  end

let release t =
  Mutex.lock t.admission;
  t.pending <- t.pending - 1;
  Mutex.unlock t.admission

let compute_faults t =
  List.iter
    (function
      | Faults.Delay_ms ms -> sleep_ms ms
      | Faults.Fail ->
        Metrics.incr_counter t.metrics "injected_failures";
        raise (Faults.Injected "compute")
      | Faults.Truncate | Faults.Shed -> ())
    (Faults.fire t.faults ~site:"compute")

(* --- Job execution --- *)

(* A request the server refuses: [bad_request] or [invalid_request] with
   the error object's extra fields (e.g. a .bench "line"). *)
exception Rejected of Protocol.decode_error

let reject code fmt =
  Printf.ksprintf (fun message -> raise (Rejected { Protocol.code; message; details = [] })) fmt

let bad fmt = reject Protocol.Bad_request fmt
let invalid fmt = reject Protocol.Invalid_request fmt

let resolve_circuit t spec =
  match Circuits.resolve t.circuits ~max_bench_bytes:t.limits.max_line_bytes spec with
  | Ok resolved -> resolved
  | Error e -> raise (Rejected e)

let check_gate_limit t net =
  let gates = Circuit.Netlist.n_gates net in
  if gates > t.limits.max_gates then
    invalid "netlist has %d gates; this server accepts at most %d" gates t.limits.max_gates

let standby_of_spec net = function
  | Protocol.Worst -> Aging.Circuit_aging.Standby_all_stressed
  | Protocol.Best -> Aging.Circuit_aging.Standby_all_relaxed
  | Protocol.Vector v ->
    let n = Circuit.Netlist.n_primary_inputs net in
    if Array.length v <> n then
      bad "standby vector has %d bits, circuit has %d primary inputs" (Array.length v) n;
    Aging.Circuit_aging.Standby_vector v

(* The prepared cache is keyed on the *prepare* fingerprint, which is
   coarser than the full config fingerprint: lifetime / RAS / temperature
   sweeps reuse the same signal probabilities and leakage tables. A
   prepared pipeline holds its netlist, whose name analyses echo, so the
   name is part of the key like it is of the result key. *)
let prepared_for t cfg (net : Circuit.Netlist.t) ~digest =
  let key =
    String.concat "|" [ digest; net.Circuit.Netlist.name; Flow.Platform.prepare_fingerprint cfg ]
  in
  Cache.find_or_add t.prepared key (fun () -> Flow.Platform.prepare cfg net)

(* Every compute path runs on the service's pool under the request's
   budget. Both fields are excluded from the config fingerprints, so
   cache keys are unchanged by them. *)
let config_for t flow ~budget =
  { (Protocol.platform_config flow) with Flow.Platform.pool = Some t.pool; budget }

(* Admission guards only the cache-miss compute path: a shedding server
   still answers anything it has already computed (degraded mode), plus
   health and stats, so operators keep observability under overload. *)
let run_job t ~budget job =
  let { Circuits.net; digest } = resolve_circuit t (Protocol.job_circuit job) in
  check_gate_limit t net;
  let key = Protocol.job_cache_key job ~circuit_digest:digest in
  let compute_payload () =
    match job with
    | Protocol.Analyze { flow; standby; _ } ->
      let cfg = config_for t flow ~budget in
      let standby = standby_of_spec net standby in
      let prepared, _ = prepared_for t cfg net ~digest in
      let a = Flow.Platform.analyze cfg prepared ~standby in
      Json.Assoc
        [
          ("kind", Json.String "analysis");
          ("circuit", Json.String net.Circuit.Netlist.name);
          ("digest", Json.String digest);
          ("fingerprint", Json.String (Flow.Platform.config_fingerprint cfg));
          ("analysis", Protocol.json_of_analysis a);
        ]
    | Protocol.Ivc_search { flow; seed; pool; tolerance; _ } ->
      let cfg = config_for t flow ~budget in
      let prepared, _ = prepared_for t cfg net ~digest in
      let result, stats =
        Flow.Platform.optimize_ivc cfg prepared ~rng:(Physics.Rng.create ~seed) ~pool
          ?tolerance ()
      in
      Json.Assoc
        [
          ("kind", Json.String "ivc");
          ("circuit", Json.String net.Circuit.Netlist.name);
          ("digest", Json.String digest);
          ("fingerprint", Json.String (Flow.Platform.config_fingerprint cfg));
          ("ivc", Protocol.json_of_ivc result stats);
        ]
    | Protocol.Sleep_sizing { flow; style; beta; vth_st; nbti_aware; _ } ->
      let cfg = config_for t flow ~budget in
      let prepared, _ = prepared_for t cfg net ~digest in
      let r = Flow.Platform.optimize_st cfg prepared ~style ~beta ?vth_st ~nbti_aware () in
      Json.Assoc
        [
          ("kind", Json.String "sleep");
          ("circuit", Json.String net.Circuit.Netlist.name);
          ("digest", Json.String digest);
          ("fingerprint", Json.String (Flow.Platform.config_fingerprint cfg));
          ("sleep", Protocol.json_of_st r);
        ]
  in
  let compute () =
    admit t;
    Fun.protect
      ~finally:(fun () -> release t)
      (fun () ->
        compute_faults t;
        Parallel.Budget.check budget;
        compute_payload ())
  in
  let payload, hit = Cache.find_or_add t.results key compute in
  match payload with
  | Json.Assoc fields -> Json.Assoc (fields @ [ ("cached", Json.Bool hit) ])
  | other -> other

(* Calibration runs mirror run_job's economics: admission guards only
   the cache-miss compute path, the budget is polled inside every
   sampler chain (Mh.poll_interval) and before every pool chunk claim,
   and the posterior is cached by dataset digest + config fingerprint —
   legitimate because the engine is deterministic in its seed. *)
let run_calibrate t ~budget (spec : Protocol.calibrate_spec) =
  let key = Protocol.calibrate_cache_key spec in
  let compute () =
    admit t;
    Fun.protect
      ~finally:(fun () -> release t)
      (fun () ->
        compute_faults t;
        Parallel.Budget.check budget;
        let posterior =
          Calibrate.Engine.run ~pool:t.pool ~budget
            spec.Protocol.config spec.Protocol.dataset
        in
        Protocol.json_of_posterior ~dataset:spec.Protocol.dataset posterior)
  in
  let payload, hit = Cache.find_or_add t.results key compute in
  match payload with
  | Json.Assoc fields -> Json.Assoc (fields @ [ ("cached", Json.Bool hit) ])
  | other -> other

let endpoint_name = function
  | Protocol.Single (Protocol.Analyze _) -> "analyze"
  | Protocol.Single (Protocol.Ivc_search _) -> "ivc_search"
  | Protocol.Single (Protocol.Sleep_sizing _) -> "sleep_sizing"
  | Protocol.Batch _ -> "batch"
  | Protocol.Calibrate _ -> "calibrate"
  | Protocol.Health -> "health"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics -> "metrics"
  | Protocol.Cache_export _ -> "cache_export"
  | Protocol.Cache_import _ -> "cache_import"
  | Protocol.Trace_export _ -> "trace_export"
  | Protocol.Cluster_metrics -> "cluster_metrics"

(* Structured health: [state] is what router probes and drain-aware
   tooling branch on; the bare [status:"ok"] liveness field predates it
   and is kept for wire compatibility ("did a well-formed daemon
   answer", not "is it accepting work"). *)
let health_state t =
  if draining t then "draining" else if pending t >= t.max_pending then "degraded" else "ok"

let health_result t =
  Json.Assoc
    [
      ("status", Json.String "ok");
      ("state", Json.String (health_state t));
      ("pending", Json.Int (pending t));
      ("max_pending", Json.Int t.max_pending);
      ("protocol_version", Json.Int Protocol.version);
      ("uptime_s", Json.Float (uptime_s t));
    ]

let metrics_result t =
  Json.Assoc
    [
      ("kind", Json.String "metrics");
      ("content_type", Json.String "text/plain; version=0.0.4");
      ("prometheus", Json.String (Obs.Registry.to_prometheus t.registry));
    ]

let build_json =
  Json.Assoc
    [
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("word_size", Json.Int Sys.word_size);
      ("os_type", Json.String Sys.os_type);
      ( "backend",
        Json.String
          (match Sys.backend_type with
          | Sys.Native -> "native"
          | Sys.Bytecode -> "bytecode"
          | Sys.Other s -> s) );
    ]

let stats_result t =
  Json.Assoc
    ([
      ("uptime_s", Json.Float (uptime_s t));
      ("protocol_version", Json.Int Protocol.version);
      ("build", build_json);
      (* Rendered from Protocol.ops — the same table the decoder's
         unknown-op error lists, so the two can never drift apart. *)
      ( "ops",
        Json.Assoc (List.map (fun (name, desc) -> (name, Json.String desc)) Protocol.ops) );
      ("endpoints", Metrics.to_json t.metrics);
      ("counters", Metrics.counters_json t.metrics);
      ( "admission",
        Json.Assoc [ ("pending", Json.Int (pending t)); ("max_pending", Json.Int t.max_pending) ]
      );
      ( "limits",
        Json.Assoc
          [
            ("max_line_bytes", Json.Int t.limits.max_line_bytes);
            ("max_batch_jobs", Json.Int t.limits.max_batch_jobs);
            ("max_gates", Json.Int t.limits.max_gates);
            ( "default_timeout_ms",
              match t.limits.default_timeout_ms with Some ms -> Json.Int ms | None -> Json.Null );
          ] );
      ( "cache",
        Json.Assoc
          [
            Metrics.cache_stats_json "results" (Cache.stats t.results);
            Metrics.cache_stats_json "prepared" (Cache.stats t.prepared);
            Metrics.cache_stats_json "circuits" (Cache.stats (Circuits.cache t.circuits));
          ] );
      ("faults", Faults.to_json t.faults);
      ("pool", Metrics.pool_json (Parallel.Pool.stats t.pool));
    ]
    @ match t.slo with None -> [] | Some slo -> [ ("slo", Metrics.slo_json slo) ])

(* Best-effort id extraction so even malformed requests get their
   correlation id echoed back. *)
let request_id = function
  | Json.Assoc kvs -> ( match List.assoc_opt "id" kvs with Some (Json.String s) -> Some s | _ -> None)
  | _ -> None

let overloaded_details t = [ ("retry_after_ms", Json.Int t.limits.shed_retry_after_ms) ]

(* Per-job error entries inside a batch response mirror the top-level
   error codes, so one failed job never poisons its siblings. *)
let job_error_json ?(details = []) code message =
  Json.Assoc
    ([
       ("kind", Json.String "error");
       ("code", Json.String (Protocol.error_code_string code));
       ("message", Json.String message);
     ]
    @ details)

(* Response introspection for the access log and request-completion log
   records: whether the envelope says ok, and the error code if not. *)
let response_ok response =
  match Json.member_opt "ok" response with Some (Json.Bool b) -> b | _ -> false

let response_error_code response =
  match Json.member_opt "error" response with
  | Some e -> ( match Json.member_opt "code" e with Some (Json.String c) -> Some c | _ -> None)
  | None -> None

(* Wraps one dispatched request in its observability envelope: the
   correlation id (echoed or generated) is installed on the handling
   thread so every span, log record and pool chunk produced below
   carries it; the dispatch itself is a "server" span; completion goes
   to the structured log and the access log. All of it collapses to
   a couple of branches when no collector / log level / access log is
   armed. *)
let with_trace_opt trace f =
  match trace with None -> f () | Some tr -> Obs.Ctx.with_trace tr f

let observed t ~cid ?trace ~endpoint run =
  Obs.Ctx.with_id cid @@ fun () ->
  (* The envelope's trace context is installed around the dispatch, so
     the "request" span (a root on this thread) parents onto the
     sender's span and every flow/pool/cache span below inherits the
     trace id. *)
  with_trace_opt trace @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let response =
    Obs.Trace.with_span ~cat:"server"
      ~args:[ ("endpoint", Obs.Fields.Str endpoint) ]
      "request" run
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let ok = response_ok response in
  let error = response_error_code response in
  (match t.slo with
  | None -> ()
  | Some slo -> Obs.Slo.observe slo ~op:endpoint ~ok ~elapsed_s);
  let level = if ok then Obs.Log.Info else Obs.Log.Warn in
  if Obs.Log.would_log level then
    Obs.Log.log level
      ~fields:
        ([
           ("endpoint", Obs.Fields.Str endpoint);
           ("ok", Obs.Fields.Bool ok);
           ("elapsed_s", Obs.Fields.Float elapsed_s);
         ]
        @ match error with None -> [] | Some c -> [ ("error", Obs.Fields.Str c) ])
      "request handled";
  access_log_write t ~cid ~endpoint ~ok ~elapsed_s ~error;
  response

let fresh_cid t = function
  | Some id -> id
  | None -> Printf.sprintf "req-%d" (Atomic.fetch_and_add t.seq 1)

let handle t request_json =
  match Protocol.envelope_of_json request_json with
  | Error { Protocol.code; message; details } ->
    if code = Protocol.Invalid_request then Metrics.incr_counter t.metrics "invalid_requests";
    let id = request_id request_json in
    observed t ~cid:(fresh_cid t id) ~endpoint:"invalid" (fun () ->
        Protocol.error_response ~id ~details code message)
  | Ok { id; timeout_ms; trace; request } ->
    let budget =
      match (timeout_ms, t.limits.default_timeout_ms) with
      | Some ms, _ | None, Some ms -> Parallel.Budget.of_timeout_ms ms
      | None, None -> Parallel.Budget.unlimited
    in
    let endpoint = endpoint_name request in
    let respond () =
      match request with
      | Protocol.Health -> Protocol.ok_response ~id (health_result t)
      | Protocol.Stats -> Protocol.ok_response ~id (stats_result t)
      | Protocol.Metrics -> Protocol.ok_response ~id (metrics_result t)
      | Protocol.Cluster_metrics ->
        Protocol.error_response ~id Protocol.Invalid_request
          "cluster_metrics is a fleet-router op; a single backend serves \"metrics\""
      (* Trace drain bypasses admission like the other introspective ops:
         it moves already-recorded spans, never computes. *)
      | Protocol.Trace_export { clear } -> begin
        match Obs.Trace.installed () with
        | None ->
          Protocol.error_response ~id Protocol.Invalid_request
            "tracing is not enabled on this process (no span collector installed)"
        | Some c ->
          Metrics.incr_counter t.metrics "trace_exports";
          let span_count = List.length (Obs.Trace.spans c) in
          let dropped = Obs.Trace.dropped c in
          let trace_json = Json.of_string (Obs.Trace.to_chrome_json c) in
          if clear then Obs.Trace.clear c;
          Protocol.ok_response ~id
            (Json.Assoc
               [
                 ("kind", Json.String "trace_export");
                 ("spans", Json.Int span_count);
                 ("dropped", Json.Int dropped);
                 ("trace", trace_json);
               ])
      end
      (* Warm-handoff ops bypass admission like health/stats: they move
         already-computed payloads, never compute, so a draining or shed
         server can still hand its heat away. Keys are content-addressed
         (Protocol.job_cache_key: job kind, digest, circuit name and
         fingerprint), so imported payloads are exactly what this server
         would have computed. *)
      | Protocol.Cache_export { max_entries } ->
        Metrics.incr_counter t.metrics "cache_exports";
        let entries = Cache.entries ~max:max_entries t.results in
        Protocol.ok_response ~id
          (Json.Assoc
             [
               ("kind", Json.String "cache_export");
               ("total", Json.Int (Cache.length t.results));
               ( "entries",
                 Json.List
                   (List.map
                      (fun (k, payload) ->
                        Json.Assoc [ ("key", Json.String k); ("payload", payload) ])
                      entries) );
             ])
      | Protocol.Cache_import { entries } ->
        Metrics.incr_counter t.metrics "cache_imports";
        List.iter (fun (k, payload) -> Cache.add t.results k payload) entries;
        Protocol.ok_response ~id
          (Json.Assoc
             [
               ("kind", Json.String "cache_import");
               ("imported", Json.Int (List.length entries));
             ])
      | Protocol.Single job -> Protocol.ok_response ~id (run_job t ~budget job)
      | Protocol.Calibrate spec -> Protocol.ok_response ~id (run_calibrate t ~budget spec)
      | Protocol.Batch jobs ->
        let n = List.length jobs in
        if n = 0 then invalid "empty batch";
        if n > t.limits.max_batch_jobs then
          invalid "batch has %d jobs; this server accepts at most %d" n t.limits.max_batch_jobs;
        (* Jobs fan out over the service pool; Pool.map returns results
           in job order, so the response order matches the request
           regardless of which domain ran which job. Each job admits,
           errors and deadlines independently. *)
        let one job =
          match run_job t ~budget job with
          | payload -> payload
          | exception Rejected { Protocol.code; message; details } ->
            job_error_json ~details code message
          | exception Overloaded ->
            job_error_json ~details:(overloaded_details t) Protocol.Overloaded
              (Printf.sprintf "job queue full (max %d pending)" t.max_pending)
          | exception Parallel.Budget.Deadline_exceeded ->
            Metrics.incr_counter t.metrics "deadline_exceeded";
            job_error_json Protocol.Deadline_exceeded "request budget exhausted"
          | exception Faults.Injected site ->
            job_error_json Protocol.Internal_error ("injected fault at " ^ site)
        in
        let results = Array.to_list (Parallel.Pool.map t.pool one (Array.of_list jobs)) in
        Protocol.ok_response ~id
          (Json.Assoc [ ("kind", Json.String "batch"); ("results", Json.List results) ])
    in
    observed t ~cid:(fresh_cid t id) ?trace ~endpoint @@ fun () ->
    (try Metrics.time t.metrics ~endpoint respond with
    | Rejected { Protocol.code; message; details } ->
      if code = Protocol.Invalid_request then Metrics.incr_counter t.metrics "invalid_requests";
      Protocol.error_response ~id ~details code message
    | Overloaded ->
      Protocol.error_response ~id ~details:(overloaded_details t) Protocol.Overloaded
        (Printf.sprintf "job queue full (max %d pending)" t.max_pending)
    | Parallel.Budget.Deadline_exceeded ->
      Metrics.incr_counter t.metrics "deadline_exceeded";
      Protocol.error_response ~id Protocol.Deadline_exceeded
        (match timeout_ms with
        | Some ms -> Printf.sprintf "request budget of %d ms exhausted" ms
        | None -> "request budget exhausted")
    | Faults.Injected site ->
      Protocol.error_response ~id Protocol.Internal_error ("injected fault at " ^ site)
    | Json.Type_error m -> Protocol.error_response ~id Protocol.Bad_request m
    | Invalid_argument m | Failure m -> Protocol.error_response ~id Protocol.Internal_error m
    | exn -> Protocol.error_response ~id Protocol.Internal_error (Printexc.to_string exn))

let handle_line t line =
  let response =
    match Json.of_string line with
    | exception Json.Parse_error m -> Protocol.error_response ~id:None Protocol.Parse_error m
    | json -> handle t json
  in
  Json.to_string response

(* --- Socket serving --- *)

type endpoint = Netline.endpoint = Unix_socket of string | Tcp of string * int

let endpoint_of_string = Netline.endpoint_of_string

(* Only flips the flag: the accept loop polls it (select with a short
   timeout), because on Linux closing a listening fd from another thread
   does not wake a blocked accept(2). Safe from signal handlers. *)
let stop t =
  Mutex.lock t.state;
  t.running <- false;
  Mutex.unlock t.state

(* Graceful shutdown: health flips to "draining" immediately (so a
   router probe stops routing here before the socket closes), the
   accept loop exits within its poll interval, and [serve] then waits —
   bounded by [drain_timeout_ms] — for open connections to finish their
   in-flight requests. Safe from signal handlers. *)
let drain t =
  Mutex.lock t.state;
  t.draining <- true;
  t.running <- false;
  Mutex.unlock t.state

let install_signal_handlers t =
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop t));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain t))

exception Drop_connection

let connection_loop t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let write_response line =
    let actions = Faults.fire t.faults ~site:"write" in
    List.iter (function Faults.Delay_ms ms -> sleep_ms ms | _ -> ()) actions;
    if List.exists (function Faults.Truncate -> true | _ -> false) actions then begin
      Metrics.incr_counter t.metrics "truncated_writes";
      output_string oc (String.sub line 0 (String.length line / 2));
      flush oc;
      raise Drop_connection
    end
    else begin
      output_string oc line;
      output_char oc '\n';
      flush oc
    end
  in
  let rec loop () =
    match Netline.read_request_line ic ~max_bytes:t.limits.max_line_bytes with
    | Netline.Eof -> ()
    | Netline.Oversized ->
      Metrics.incr_counter t.metrics "invalid_requests";
      write_response
        (Json.to_string
           (Protocol.error_response ~id:None
              ~details:[ ("max_line_bytes", Json.Int t.limits.max_line_bytes) ]
              Protocol.Invalid_request
              (Printf.sprintf "request line exceeds %d bytes" t.limits.max_line_bytes)));
      loop ()
    | Netline.Line line ->
      let line =
        (* tolerate CRLF clients *)
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
      in
      if String.trim line <> "" then write_response (handle_line t line);
      loop ()
  in
  (* A peer that vanishes mid-write (EPIPE / ECONNRESET — surfaced as
     Sys_error through the channel layer) or mid-read costs exactly this
     connection, never the daemon; SIGPIPE is ignored in [serve]. *)
  Mutex.lock t.state;
  t.connections <- t.connections + 1;
  Mutex.unlock t.state;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.state;
      t.connections <- t.connections - 1;
      Mutex.unlock t.state)
    (fun () ->
      try loop () with
      | Drop_connection -> ()
      | Sys_error _ | Unix.Unix_error _ -> Metrics.incr_counter t.metrics "disconnects")

let serve t endpoint ?(on_ready = fun () -> ()) () =
  Mutex.lock t.state;
  t.running <- true;
  Mutex.unlock t.state;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.state;
      t.running <- false;
      let draining = t.draining in
      Mutex.unlock t.state;
      (* Drain: the listening socket is already closed (Netline's own
         cleanup ran first), so no new work can arrive; wait — bounded —
         for connection threads to finish their in-flight requests. *)
      if draining then begin
        let deadline = Unix.gettimeofday () +. (float_of_int t.drain_timeout_ms /. 1000.0) in
        while connections t > 0 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done
      end)
    (fun () ->
      Netline.serve endpoint ~on_ready
        ~running:(fun () -> t.running)
        ~on_connection:(fun fd -> connection_loop t fd)
        ())
