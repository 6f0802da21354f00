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

type state = {
  circuits : Circuits.t;
  prepared : Flow.Platform.prepared Cache.t;
  (* each result payload as the bytes it was printed to when computed *)
  results : string Cache.t;
  metrics : Metrics.t;
  registry : Obs.Registry.t;
  pool : Parallel.Pool.t;
  limits : limits;
  started_at : float;
  max_pending : int;
  mutable pending : int;
  admission : Mutex.t;
  mutable faults : Faults.t;
  slo : Obs.Slo.t option;
}

type t = (state, unit) Frontend.t

(* Result-cache entries are printed payloads; weigh them by their size
   (plus a small per-entry overhead) so [result_max_bytes] tracks
   resident memory approximately. *)
let payload_weight s = String.length s + 64

let uptime_s t = Unix.gettimeofday () -. t.started_at

let pending t =
  Mutex.lock t.admission;
  let p = t.pending in
  Mutex.unlock t.admission;
  p

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

(* --- Bounded admission to the compute path --- *)

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
    raise
      (Frontend.Overloaded
         { max_pending = t.max_pending; retry_after_ms = t.limits.shed_retry_after_ms })
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

let reject code fmt =
  Printf.ksprintf
    (fun message -> raise (Frontend.Rejected { Protocol.code; message; details = [] }))
    fmt

let bad fmt = reject Protocol.Bad_request fmt
let invalid fmt = reject Protocol.Invalid_request fmt

let resolve_circuit t spec =
  match Circuits.resolve t.circuits ~max_bench_bytes:t.limits.max_line_bytes spec with
  | Ok resolved -> resolved
  | Error e -> raise (Frontend.Rejected e)

let check_gate_limit t net =
  let gates = Circuit.Netlist.n_gates net in
  if gates > t.limits.max_gates then
    invalid "netlist has %d gates; this server accepts at most %d" gates t.limits.max_gates

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
      let standby = match Protocol.standby_state net standby with Ok s -> s | Error m -> bad "%s" m in
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
        Json.to_string (compute_payload ()))
  in
  let payload, hit = Cache.find_or_add t.results key compute in
  Protocol.cached_result payload ~hit

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
        Json.to_string (Protocol.json_of_posterior ~dataset:spec.Protocol.dataset posterior))
  in
  let payload, hit = Cache.find_or_add t.results key compute in
  Protocol.cached_result payload ~hit

(* Structured health: [state] is what router probes and drain-aware
   tooling branch on; the bare [status:"ok"] liveness field predates it
   and is kept for wire compatibility ("did a well-formed daemon
   answer", not "is it accepting work"). *)
let health_state fe t =
  if Frontend.draining fe then "draining" else if pending t >= t.max_pending then "degraded" else "ok"

let health_result fe t =
  Json.Assoc
    [
      ("status", Json.String "ok");
      ("state", Json.String (health_state fe t));
      ("pending", Json.Int (pending t));
      ("max_pending", Json.Int t.max_pending);
      ("protocol_version", Json.Int Protocol.version);
      ("uptime_s", Json.Float (uptime_s t));
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
    @ match t.slo with None -> [] | Some slo -> [ ("slo", Obs.Slo.to_json slo) ])

let dispatch fe { Protocol.id; timeout_ms; trace = _; request } =
  let t = Frontend.state fe in
  let budget =
    match (timeout_ms, t.limits.default_timeout_ms) with
    | Some ms, _ | None, Some ms -> Parallel.Budget.of_timeout_ms ms
    | None, None -> Parallel.Budget.unlimited
  in
  let response =
    match request with
    | Protocol.Health -> Protocol.ok_response ~id (health_result fe t)
    | Protocol.Stats -> Protocol.ok_response ~id (stats_result t)
    | Protocol.Metrics -> Protocol.ok_response ~id (Frontend.metrics_result fe)
    | Protocol.Cluster_metrics ->
      Protocol.error_response ~id Protocol.Invalid_request
        "cluster_metrics is a fleet-router op; a single backend serves \"metrics\""
    | Protocol.Trace_export { clear } -> Frontend.trace_export fe ~id ~clear
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
                      Json.Assoc [ ("key", Json.String k); ("payload", Json.Raw payload) ])
                    entries) );
           ])
    | Protocol.Cache_import { entries } ->
      Metrics.incr_counter t.metrics "cache_imports";
      List.iter (fun (k, payload) -> Cache.add t.results k (Json.to_string payload)) entries;
      Protocol.ok_response ~id
        (Json.Assoc
           [
             ("kind", Json.String "cache_import"); ("imported", Json.Int (List.length entries));
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
      let one = Frontend.batch_entry fe ~timeout_ms (run_job t ~budget) in
      let results = Array.to_list (Parallel.Pool.map t.pool one (Array.of_list jobs)) in
      Protocol.ok_response ~id
        (Json.Assoc [ ("kind", Json.String "batch"); ("results", Json.List results) ])
  in
  (response, ())

let role =
  {
    Frontend.cid_prefix = "req-";
    span_cat = "server";
    process_name = None;
    originates_traces = false;
    faults = (fun t -> t.faults);
    dispatch;
    no_meta = ();
    access_fields = (fun () -> []);
    tick = None;
  }

let create ?(result_capacity = 256) ?(result_max_bytes = 64 * 1024 * 1024)
    ?(prepared_capacity = 32) ?(max_pending = 64) ?(limits = default_limits)
    ?(faults = Faults.none) ?drain_timeout_ms ?pool ?slo () =
  let t =
    {
      circuits = Circuits.create ();
      prepared = Cache.create ~capacity:prepared_capacity ();
      results =
        Cache.create ~capacity:result_capacity ~max_bytes:result_max_bytes ~weight:payload_weight
          ();
      metrics = Metrics.create ();
      registry = Obs.Registry.create ();
      pool = (match pool with Some p -> p | None -> Parallel.Pool.default ());
      limits;
      started_at = Unix.gettimeofday ();
      max_pending;
      pending = 0;
      admission = Mutex.create ();
      faults;
      slo;
    }
  in
  register_collectors t;
  Metrics.observe_cache "results" t.results;
  Metrics.observe_cache "prepared" t.prepared;
  Metrics.observe_cache "circuits" (Circuits.cache t.circuits);
  Frontend.create role ~metrics:t.metrics ~registry:t.registry ?slo ?drain_timeout_ms
    ~max_line_bytes:limits.max_line_bytes t

let set_faults fe faults = (Frontend.state fe).faults <- faults
let pending fe = pending (Frontend.state fe)
let handle_line = Frontend.handle_line
