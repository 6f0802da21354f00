(* The fleet front end: consistent-hash routing of protocol requests
   across N backend daemons, with singleflight coalescing, probe-driven
   health, bounded rehash-and-retry failover and warm-cache handoff.

   The router speaks the same wire protocol on both sides: clients talk
   to it exactly as they would to a single backend, and it forwards
   single jobs over Server.Client (the same retrying connector the CLI
   uses), on connections each backend keeps open, passing the backend's
   answer bytes through. Forwarding is safe to retry anywhere because
   every routed op is idempotent — analyses are pure and
   content-addressed. *)

module Json = Server.Json
module Protocol = Server.Protocol

type config = {
  vnodes : int;
  failover_attempts : int;
  probe_interval_ms : int;
  probe_backoff_cap_ms : int;
  probe_timeout_ms : int;
  handoff_max_entries : int;
  max_line_bytes : int;
}

let default_config =
  {
    vnodes = 64;
    failover_attempts = 3;
    probe_interval_ms = 500;
    probe_backoff_cap_ms = 5000;
    probe_timeout_ms = 2000;
    handoff_max_entries = 256;
    max_line_bytes = 4 * 1024 * 1024;
  }

(* A forwarded request either yields the backend's result payload (its
   bytes, when the backend laid its answer out as [ok_response] prints
   one) or a structured error object; both are plain values so
   singleflight followers share them without exception plumbing. *)
type forwarded = Payload of Json.t | Failed of Json.t

(* How a forward was served, for the access log and the coalescing
   trace link: which backend answered, how many failover hops it took,
   the leader's trace id (followers link to it), and whether this
   caller was a coalesced follower. *)
type meta = {
  meta_backend : string option;
  failovers : int;
  leader_trace_id : string option;
  coalesced : bool;
}

type state = {
  config : config;
  ring : Ring.t;
  backends : Backend.t list;
  by_name : (string, Backend.t) Hashtbl.t;
  flight : (forwarded * meta) Singleflight.t;
  slo : Obs.Slo.t option;
  metrics : Server.Metrics.t;
  registry : Obs.Registry.t;
  faults : Server.Faults.t;
  (* routing needs every request's cache key, hence its circuit's digest *)
  circuits : Server.Circuits.t;
  rng : Physics.Rng.t;
  rng_lock : Mutex.t;
  started_at : float;
}

type t = (state, meta) Server.Frontend.t

let backend t name = Hashtbl.find t.by_name name
let uptime_s t = Unix.gettimeofday () -. t.started_at

let register_collectors t =
  let r = t.registry in
  Obs.Registry.register r (fun () -> Server.Metrics.registry_samples t.metrics);
  Obs.Registry.register r (fun () -> Obs.Trace.registry_samples ());
  Obs.Registry.register r (fun () ->
      Server.Metrics.cache_samples "circuits" (Server.Cache.stats (Server.Circuits.cache t.circuits)));
  (match t.slo with
  | None -> ()
  | Some slo -> Obs.Registry.register r (fun () -> Obs.Slo.registry_samples slo));
  Obs.Registry.register_gauge r ~name:"nbti_fleet_uptime_seconds"
    ~help:"Seconds since the router was created." (fun () -> uptime_s t);
  Obs.Registry.register r (fun () ->
      List.concat_map
        (fun b ->
          match Backend.rtt_stats b with
          | None -> []
          | Some { Backend.count = _; last_s; p50_s; p95_s } ->
            let quantile q v =
              {
                Obs.Registry.name = "nbti_fleet_probe_rtt_seconds";
                help = "Probe round-trip time quantiles over the last 128 successful probes.";
                labels = [ ("backend", Backend.name b); ("quantile", q) ];
                value = Obs.Registry.Gauge v;
              }
            in
            [
              quantile "0.5" p50_s;
              quantile "0.95" p95_s;
              {
                Obs.Registry.name = "nbti_fleet_probe_rtt_last_seconds";
                help = "Most recent successful probe round-trip time.";
                labels = [ ("backend", Backend.name b) ];
                value = Obs.Registry.Gauge last_s;
              };
            ])
        t.backends);
  Obs.Registry.register r (fun () ->
      List.concat_map
        (fun b ->
          let s = Backend.state b in
          let labels = [ ("backend", Backend.name b) ] in
          [
            {
              Obs.Registry.name = "nbti_fleet_backend_up";
              help = "1 when the backend is routable (up or recovering).";
              labels;
              value = Obs.Registry.Gauge (if Backend.routable s then 1.0 else 0.0);
            };
            {
              Obs.Registry.name = "nbti_fleet_backend_state";
              help = "Constant 1; the backend's current state is the label.";
              labels = labels @ [ ("state", Backend.state_string s) ];
              value = Obs.Registry.Gauge 1.0;
            };
          ])
        t.backends)

let backoff t policy ~attempt ?retry_after_ms () =
  Mutex.lock t.rng_lock;
  let ms = Server.Retry.backoff_ms policy ~attempt ?retry_after_ms ~rng:t.rng () in
  Mutex.unlock t.rng_lock;
  ms

(* --- routing --- *)

(* The routing key IS the backend's cache key, built on the digest the
   same resolver computes: requests that would hit the same cache entry
   land on the same backend, which is the whole point of hashing by
   digest + config fingerprint. *)
let job_key t job =
  match
    Server.Circuits.resolve t.circuits ~max_bench_bytes:t.config.max_line_bytes
      (Protocol.job_circuit job)
  with
  | Ok { Server.Circuits.digest; _ } -> Protocol.job_cache_key job ~circuit_digest:digest
  | Error e -> raise (Server.Frontend.Rejected e)

(* Failover candidates: the ring's preference order filtered to
   routable backends, then Suspect ones as a last resort (a Suspect
   backend may just have had one unlucky probe). Down and Draining are
   never candidates. *)
let candidates t key =
  let pref = Ring.owners t.ring key in
  let routable, rest =
    List.partition (fun n -> Backend.routable (Backend.state (backend t n))) pref
  in
  let suspects = List.filter (fun n -> Backend.state (backend t n) = Backend.Suspect) rest in
  routable @ suspects

let forward_read_timeout = function
  | Some ms -> Some (Float.max 5.0 (4.0 *. float_of_int ms /. 1000.0))
  | None -> None

type attempt_outcome =
  | Answered of Json.t (* the result payload *)
  | Refused of Json.t (* a structured, non-retryable error object: final *)
  | Unavailable of string (* transport failure / retryable exhausted: fail over *)

(* Local control flow only: lets a failed forward attempt close its
   span with ok = false (with_span marks raising thunks failed). *)
exception Unavailable_backend of string

(* One in-place retry smooths a single dropped connection; real failover
   (rehashing to the next owner) is the router loop's job, so the
   per-backend policy stays tight. *)
let forward_policy = { Server.Retry.retries = 1; base_ms = 20; cap_ms = 200 }

(* A forward runs on one of the backend's idle connections, or a new
   one, under its own read timeout. The connection goes back only after
   an answer that parsed as a response; the client has already closed it
   on a transport error, a timeout or an unparseable line. *)
let try_backend t b ~timeout_ms line =
  Server.Metrics.incr_counter t.metrics "forward_attempts";
  if Server.Faults.fire t.faults ~site:"connect" then begin
    Server.Metrics.incr_counter t.metrics "injected_connect_faults";
    Unavailable "injected connect fault"
  end
  else begin
    let client =
      match Backend.checkout b with
      | Some c -> c
      | None ->
        Server.Client.create
          ~on_connect:(fun () -> Server.Metrics.incr_counter t.metrics "backend_connects")
          (Backend.endpoint b)
    in
    Server.Client.set_read_timeout client (forward_read_timeout timeout_ms);
    let outcome =
      match Server.Client.call_parsed client ~policy:forward_policy line with
      | exception e ->
        Server.Client.close client;
        raise e
      | Ok (response, json) -> begin
        match (Json.member_opt "ok" json, Json.member_opt "error" json) with
        | Some (Json.Bool true), _ -> Answered (Protocol.forwarded_result ~line:response json)
        | _, Some e -> Refused e
        | _, None -> Unavailable "malformed backend response"
      end
      | Error { Server.Client.reason; _ } -> Unavailable reason
    in
    (match outcome with
    | Answered _ | Refused _ -> Backend.checkin b client
    | Unavailable _ -> Server.Client.close client);
    outcome
  end

(* The [retry_after_ms] hint of a [fleet_degraded] answer. *)
let degraded_retry_after_ms = 500

let degraded_error ~tried =
  Json.Assoc
    [
      ("code", Json.String (Protocol.error_code_string Protocol.Fleet_degraded));
      ( "message",
        Json.String
          (Printf.sprintf "no live backend owns this hash range (%d backend%s tried)" tried
             (if tried = 1 then "" else "s")) );
      ("retry_after_ms", Json.Int degraded_retry_after_ms);
      ("backends_tried", Json.Int tried);
    ]

(* Bounded rehash-and-retry: walk the preference sequence, marking each
   failed backend Suspect (and pulling its probe forward) before moving
   on. Safe because every routed op is idempotent; the bound keeps a
   fully-dark fleet from turning one request into an unbounded scan. *)
let route t ~key ~timeout_ms line =
  let leader_trace_id =
    match Obs.Ctx.current_trace () with Some tr -> Some tr.Obs.Ctx.trace_id | None -> None
  in
  let meta backend failovers = { meta_backend = backend; failovers; leader_trace_id; coalesced = false } in
  let cands = List.filteri (fun i _ -> i < t.config.failover_attempts) (candidates t key) in
  let rec go tried = function
    | [] ->
      Server.Metrics.incr_counter t.metrics "fleet_degraded";
      (Failed (degraded_error ~tried), meta None (max 0 (tried - 1)))
    | name :: rest -> begin
      let b = backend t name in
      (* Each attempt is its own span: a failover walk shows up in the
         merged trace as a failed fleet.forward followed by the hop that
         answered, and the backend's spans parent onto the attempt that
         actually reached it (Client.call stamps the open span). *)
      let attempt () =
        match try_backend t b ~timeout_ms line with
        | Answered _ | Refused _ as outcome -> outcome
        | Unavailable reason -> raise (Unavailable_backend reason)
      in
      let outcome =
        match
          Obs.Trace.with_span ~cat:"fleet"
            ~args:[ ("backend", Obs.Fields.Str name); ("attempt", Obs.Fields.Int tried) ]
            "fleet.forward" attempt
        with
        | o -> o
        | exception Unavailable_backend reason -> Unavailable reason
      in
      match outcome with
      | Answered payload -> (Payload payload, meta (Some name) tried)
      | Refused e -> (Failed e, meta (Some name) tried)
      | Unavailable reason ->
        Server.Metrics.incr_counter t.metrics "backend_failures";
        Backend.record_request_failure b;
        (match Backend.state b with
        | Backend.Up | Backend.Recovering -> Backend.set_state b Backend.Suspect
        | Backend.Suspect | Backend.Down | Backend.Draining -> ());
        if Obs.Log.would_log Obs.Log.Warn then
          Obs.Log.warn
            ~fields:
              [
                ("backend", Obs.Fields.Str name);
                ("reason", Obs.Fields.Str reason);
                ("remaining", Obs.Fields.Int (List.length rest));
              ]
            "fleet: backend unavailable";
        if rest <> [] then Server.Metrics.incr_counter t.metrics "failovers";
        go (tried + 1) rest
    end
  in
  go 0 cands

(* Identical concurrent requests collapse to one backend flight; the
   singleflight key is the routing key, so followers are exactly the
   requests that would have computed the same payload. A coalesced
   follower drops an instant marker carrying the leader's trace id, so
   the follower's trace links to the flight that actually ran. *)
let forward t ~key ~timeout_ms ~line =
  let (outcome, meta), follower =
    Singleflight.run t.flight key (fun () -> route t ~key ~timeout_ms line)
  in
  if follower then begin
    Server.Metrics.incr_counter t.metrics "coalesced";
    (match meta.leader_trace_id with
    | Some leader when Obs.Trace.enabled () ->
      let own = match Obs.Ctx.current_trace () with Some tr -> Some tr.Obs.Ctx.trace_id | None -> None in
      if own <> Some leader then
        Obs.Trace.instant ~cat:"fleet"
          ~args:[ ("leader_trace_id", Obs.Fields.Str leader) ]
          "fleet.coalesced"
    | _ -> ())
  end;
  (outcome, { meta with coalesced = follower })

let encode_line ~timeout_ms request =
  (* Router-originated lines (batch fan-out, handoff) carry the active
     trace context so backend spans join the request's trace. *)
  Json.to_string
    (Protocol.json_of_envelope
       { Protocol.id = None; timeout_ms; trace = Obs.Trace.propagation_context (); request })

let forward_job t ~timeout_ms job =
  let key = job_key t job in
  forward t ~key ~timeout_ms ~line:(encode_line ~timeout_ms (Protocol.Single job))

(* --- warm-cache handoff --- *)

let handoff_policy = { Server.Retry.retries = 1; base_ms = 20; cap_ms = 200 }

(* One short-lived connection to a backend on the probe timeout, closed
   whatever [f] does. [f] gets [call]: one request line to the answer's
   "result", or None when the call failed, the line did not parse or the
   backend answered an error. *)
let with_backend ?policy t b f =
  let client =
    Server.Client.create
      ~read_timeout_s:(float_of_int t.config.probe_timeout_ms /. 1000.0)
      (Backend.endpoint b)
  in
  let call line =
    match Server.Client.call_parsed client ?policy line with
    | Error _ -> None
    | Ok (_, json) -> Json.member_opt "result" json
  in
  Fun.protect ~finally:(fun () -> Server.Client.close client) (fun () -> f call)

let export_from t src =
  let line =
    encode_line ~timeout_ms:None
      (Protocol.Cache_export { max_entries = t.config.handoff_max_entries })
  in
  with_backend ~policy:handoff_policy t src @@ fun call ->
  match Option.bind (call line) (Json.member_opt "entries") with
  | Some (Json.List items) ->
    List.filter_map
      (fun item ->
        match (Json.member_opt "key" item, Json.member_opt "payload" item) with
        | Some (Json.String k), Some payload -> Some (k, payload)
        | _ -> None)
      items
  | _ -> []

let import_into t dst entries =
  if entries <> [] then begin
    let line = encode_line ~timeout_ms:None (Protocol.Cache_import { entries }) in
    with_backend ~policy:handoff_policy t dst @@ fun call ->
    match call line with
    | Some _ ->
      let bytes =
        List.fold_left
          (fun acc (_, payload) -> acc + String.length (Json.to_string payload))
          0 entries
      in
      Server.Metrics.incr_counter ~by:(List.length entries) t.metrics "handoff_keys";
      Server.Metrics.incr_counter ~by:bytes t.metrics "handoff_bytes"
    | None -> Server.Metrics.incr_counter t.metrics "handoff_failures"
  end

let log_handoff ~kind b n =
  if Obs.Log.would_log Obs.Log.Info then
    Obs.Log.info
      ~fields:
        [
          ("backend", Obs.Fields.Str (Backend.name b));
          ("kind", Obs.Fields.Str kind);
          ("keys", Obs.Fields.Int n);
        ]
      "fleet: warm-cache handoff"

(* A recovered backend reclaims its hash ranges, so replay the hot keys
   it now owns from the peers that answered for it while it was down.
   Ownership is evaluated with the recovered backend counted live —
   exactly the filter routing will use once it is Up. *)
let recovery_handoff t b =
  if Server.Faults.fire t.faults ~site:"handoff" then
    Server.Metrics.incr_counter t.metrics "handoff_aborted"
  else begin
    Server.Metrics.incr_counter t.metrics "handoffs";
    let mine = Backend.name b in
    let live name = name = mine || Backend.routable (Backend.state (backend t name)) in
    let moved = ref 0 in
    List.iter
      (fun peer ->
        if Backend.name peer <> mine && Backend.state peer = Backend.Up then begin
          let entries = export_from t peer in
          let claimed =
            List.filter (fun (key, _) -> Ring.owner t.ring ~live key = Some mine) entries
          in
          moved := !moved + List.length claimed;
          import_into t b claimed
        end)
      t.backends;
    log_handoff ~kind:"recovery" b !moved
  end

(* A draining backend hands its heat to each key's next-preference live
   owner before it exits, so its shutdown does not cost the fleet the
   warm cache it spent its lifetime building. *)
let departing_handoff t b =
  if Server.Faults.fire t.faults ~site:"handoff" then
    Server.Metrics.incr_counter t.metrics "handoff_aborted"
  else begin
    Server.Metrics.incr_counter t.metrics "handoffs";
    let departing = Backend.name b in
    let live name = name <> departing && Backend.routable (Backend.state (backend t name)) in
    let entries = export_from t b in
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (key, payload) ->
        match Ring.owner t.ring ~live key with
        | Some owner ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt groups owner) in
          Hashtbl.replace groups owner ((key, payload) :: prev)
        | None -> ())
      entries;
    let moved = ref 0 in
    Hashtbl.iter
      (fun owner group ->
        moved := !moved + List.length group;
        import_into t (backend t owner) (List.rev group))
      groups;
    log_handoff ~kind:"departing" b !moved
  end

(* --- health probing --- *)

let probe_line = encode_line ~timeout_ms:None Protocol.Health
let metrics_line = encode_line ~timeout_ms:None Protocol.Metrics

(* Metrics federation rides the probe: after a successful health probe,
   the same connection scrapes the backend's [metrics] op and the
   parsed samples are stored on the backend record for
   [cluster_metrics]. A failed scrape costs a counter, never health. *)
let scrape_backend_metrics t b call =
  match Option.bind (call metrics_line) (Json.member_opt "prometheus") with
  | Some (Json.String text) ->
    Backend.set_scraped b (Obs.Registry.of_prometheus text);
    Server.Metrics.incr_counter t.metrics "metrics_scrapes"
  | _ -> Server.Metrics.incr_counter t.metrics "metrics_scrape_failures"

let log_transition b ~to_ =
  if Obs.Log.would_log Obs.Log.Info then
    Obs.Log.info
      ~fields:[ ("backend", Obs.Fields.Str (Backend.name b)); ("state", Obs.Fields.Str to_) ]
      "fleet: backend state"

let on_probe_success t b ~rtt_s ~backend_state =
  Backend.record_probe ~rtt_s b ~ok:true;
  if backend_state = "draining" then begin
    match Backend.state b with
    | Backend.Draining -> ()
    | _ ->
      Backend.set_state b Backend.Draining;
      log_transition b ~to_:"draining";
      departing_handoff t b
  end
  else begin
    match Backend.state b with
    | Backend.Up -> ()
    | Backend.Suspect | Backend.Recovering ->
      Backend.set_state b Backend.Up;
      log_transition b ~to_:"up"
    | Backend.Down | Backend.Draining ->
      (* Back from the dead (or restarted after a drain): warm it up
         before declaring it fully routable. Recovering is routable, so
         traffic resumes immediately while the handoff replays. *)
      Backend.set_state b Backend.Recovering;
      log_transition b ~to_:"recovering";
      Server.Metrics.incr_counter t.metrics "recoveries";
      recovery_handoff t b;
      Backend.set_state b Backend.Up;
      log_transition b ~to_:"up"
  end

let on_probe_failure t b =
  Backend.record_probe b ~ok:false;
  Server.Metrics.incr_counter t.metrics "probe_failures";
  match Backend.state b with
  | Backend.Up | Backend.Recovering ->
    Backend.set_state b Backend.Suspect;
    log_transition b ~to_:"suspect"
  | Backend.Suspect | Backend.Draining ->
    Backend.set_state b Backend.Down;
    log_transition b ~to_:"down"
  | Backend.Down -> ()

let probe_backend t b =
  let ok_state =
    if Server.Faults.fire t.faults ~site:"probe" then begin
      Server.Metrics.incr_counter t.metrics "injected_probe_faults";
      None
    end
    else
      with_backend t b @@ fun call ->
      let t0 = Unix.gettimeofday () in
      match call probe_line with
      | Some result ->
        (* the backend's structured health state ("ok" / "degraded" /
           "draining"); a pre-fleet backend reports liveness only *)
        let backend_state =
          match Json.member_opt "state" result with Some (Json.String s) -> s | _ -> "ok"
        in
        let rtt_s = Unix.gettimeofday () -. t0 in
        scrape_backend_metrics t b call;
        Some (backend_state, rtt_s)
      | None -> None
  in
  (match ok_state with
  | Some (backend_state, rtt_s) -> on_probe_success t b ~rtt_s ~backend_state
  | None -> on_probe_failure t b);
  (* Healthy backends are probed at the configured cadence; failing
     ones back off exponentially with jitter up to the cap, so a dead
     backend is not hammered and recovering fleets do not probe in
     lockstep. *)
  let delay_ms =
    match ok_state with
    | Some _ -> t.config.probe_interval_ms
    | None ->
      let policy =
        {
          Server.Retry.retries = 0;
          base_ms = t.config.probe_interval_ms;
          cap_ms = t.config.probe_backoff_cap_ms;
        }
      in
      backoff t policy ~attempt:(max 0 (Backend.consecutive_failures b - 1)) ()
  in
  Backend.schedule_probe b ~at:(Unix.gettimeofday () +. (float_of_int delay_ms /. 1000.0))

let probe_due_backends t =
  let now = Unix.gettimeofday () in
  List.iter (fun b -> if Backend.probe_due b ~now then probe_backend t b) t.backends

let health_result fe t =
  let live =
    List.length (List.filter (fun b -> Backend.routable (Backend.state b)) t.backends)
  in
  let state =
    if Server.Frontend.draining fe then "draining" else if live = 0 then "degraded" else "ok"
  in
  Json.Assoc
    [
      ("status", Json.String "ok");
      ("state", Json.String state);
      ("role", Json.String "router");
      ("backends_live", Json.Int live);
      ("backends_total", Json.Int (List.length t.backends));
      ("protocol_version", Json.Int Protocol.version);
      ("uptime_s", Json.Float (uptime_s t));
    ]

let stats_result t =
  Json.Assoc
    ([
       ("role", Json.String "router");
      ("uptime_s", Json.Float (uptime_s t));
      ("protocol_version", Json.Int Protocol.version);
      ( "ring",
        Json.Assoc
          [
            ("vnodes", Json.Int (Ring.vnodes t.ring));
            ( "backends",
              Json.List (List.map (fun n -> Json.String n) (Ring.backends t.ring)) );
          ] );
      ("backends", Json.List (List.map Backend.to_json t.backends));
      ( "singleflight",
        Json.Assoc
          [
            ("flights", Json.Int (Singleflight.flights_total t.flight));
            ("coalesced", Json.Int (Singleflight.coalesced_total t.flight));
          ] );
      ("counters", Server.Metrics.counters_json t.metrics);
      ("endpoints", Server.Metrics.to_json t.metrics);
      ("faults", Server.Faults.to_json t.faults);
      ( "cache",
        Json.Assoc
          [
            Server.Metrics.cache_stats_json "circuits"
              (Server.Cache.stats (Server.Circuits.cache t.circuits));
          ] );
    ]
    @ match t.slo with None -> [] | Some slo -> [ ("slo", Obs.Slo.to_json slo) ])

(* --- metrics federation --- *)

(* Sum the per-backend request-latency scrapes into one fleet-wide
   histogram family per endpoint. Merging is exact because every
   backend uses the same Metrics bucket layout; a scrape with a
   different layout (version skew) is skipped rather than mis-summed. *)
let merged_latency per_backend =
  let acc = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (s : Obs.Registry.sample) ->
      if s.name = "nbti_request_latency_seconds" then
        match s.value with
        | Obs.Registry.Histogram h -> begin
          let endpoint = Option.value ~default:"unknown" (List.assoc_opt "endpoint" s.labels) in
          match Hashtbl.find_opt acc endpoint with
          | None ->
            order := endpoint :: !order;
            Hashtbl.add acc endpoint
              (h.upper_bounds, Array.copy h.counts, ref h.sum, ref h.count)
          | Some (bounds, counts, sum, count)
            when bounds = h.upper_bounds && Array.length counts = Array.length h.counts ->
            Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) h.counts;
            sum := !sum +. h.sum;
            count := !count + h.count
          | Some _ -> ()
        end
        | _ -> ())
    per_backend;
  List.rev_map
    (fun endpoint ->
      let bounds, counts, sum, count = Hashtbl.find acc endpoint in
      {
        Obs.Registry.name = "nbti_fleet_request_latency_seconds";
        help = "Request latency summed across every backend's last scrape, by endpoint.";
        labels = [ ("endpoint", endpoint) ];
        value =
          Obs.Registry.Histogram { upper_bounds = bounds; counts; sum = !sum; count = !count };
      })
    !order

(* The federated exposition: the router's own registry (request
   counters, backend up/state gauges, probe RTT quantiles, SLO burn
   rates), fleet aggregates, then every backend's last scrape with a
   [backend="..."] label prepended to each sample. *)
let cluster_metrics_text t =
  let own = Obs.Registry.snapshot t.registry in
  let per_backend =
    List.concat_map
      (fun b ->
        List.map
          (fun (s : Obs.Registry.sample) ->
            { s with Obs.Registry.labels = ("backend", Backend.name b) :: s.labels })
          (Backend.scraped b))
      t.backends
  in
  Obs.Registry.render (own @ merged_latency per_backend @ per_backend)

let cluster_metrics_result t =
  let scraped = List.filter (fun b -> Backend.scraped b <> []) t.backends in
  Json.Assoc
    [
      ("kind", Json.String "cluster_metrics");
      ("content_type", Json.String "text/plain; version=0.0.4");
      ("backends_scraped", Json.Int (List.length scraped));
      ("backends_total", Json.Int (List.length t.backends));
      ("prometheus", Json.String (cluster_metrics_text t));
    ]

(* Rebuild the client-facing envelope around a backend's error object
   verbatim — codes, messages and details (retry_after_ms, line, ...)
   pass through untouched. *)
let error_envelope ~id e =
  Json.Assoc
    ([ ("v", Json.Int Protocol.version) ]
    @ (match id with None -> [] | Some id -> [ ("id", Json.String id) ])
    @ [ ("ok", Json.Bool false); ("error", e) ])

(* Per-job error entries inside a batch mirror the backend's own shape:
   {"kind":"error", ...error object fields}. *)
let job_error_of = function
  | Json.Assoc fields -> Json.Assoc (("kind", Json.String "error") :: fields)
  | other ->
    Json.Assoc
      [
        ("kind", Json.String "error");
        ("code", Json.String (Protocol.error_code_string Protocol.Internal_error));
        ("message", Json.String (Json.to_string other));
      ]

(* What the access log reports for a request the router answered
   itself: no backend, no hops. *)
let local_meta = { meta_backend = None; failovers = 0; leader_trace_id = None; coalesced = false }

let forwarded ~id = function
  | Payload payload, meta -> (Protocol.ok_response ~id payload, meta)
  | Failed e, meta -> (error_envelope ~id e, meta)

(* Dispatch answers with the response envelope plus, for forwarded
   requests, the routing metadata the access log reports. *)
let dispatch fe { Protocol.id; timeout_ms; trace = _; request } =
  let t = Server.Frontend.state fe in
  match request with
  | Protocol.Health -> (Protocol.ok_response ~id (health_result fe t), local_meta)
  | Protocol.Stats -> (Protocol.ok_response ~id (stats_result t), local_meta)
  | Protocol.Metrics -> (Protocol.ok_response ~id (Server.Frontend.metrics_result fe), local_meta)
  | Protocol.Cluster_metrics -> (Protocol.ok_response ~id (cluster_metrics_result t), local_meta)
  | Protocol.Trace_export { clear } -> (Server.Frontend.trace_export fe ~id ~clear, local_meta)
  | Protocol.Cache_export _ | Protocol.Cache_import _ ->
    ( Protocol.error_response ~id Protocol.Invalid_request
        "cache_export/cache_import are backend-local ops; address a backend directly",
      local_meta )
  | Protocol.Single job -> forwarded ~id (forward_job t ~timeout_ms job)
  | Protocol.Calibrate spec ->
    let key = Protocol.calibrate_cache_key spec in
    forwarded ~id
      (forward t ~key ~timeout_ms ~line:(encode_line ~timeout_ms (Protocol.Calibrate spec)))
  | Protocol.Batch jobs ->
    (* Jobs are split and routed independently — each to its own owner,
       each with its own failover — and reassembled in request order.
       One dead backend therefore fails no sibling jobs. The batch's
       access-log record aggregates the per-job hops. *)
    let failovers = ref 0 in
    let coalesced = ref false in
    let one job =
      let outcome, meta = forward_job t ~timeout_ms job in
      failovers := !failovers + meta.failovers;
      coalesced := !coalesced || meta.coalesced;
      match outcome with Payload payload -> payload | Failed e -> job_error_of e
    in
    let results = List.map (Server.Frontend.batch_entry fe ~timeout_ms one) jobs in
    ( Protocol.ok_response ~id
        (Json.Assoc [ ("kind", Json.String "batch"); ("results", Json.List results) ]),
      { local_meta with failovers = !failovers; coalesced = !coalesced } )

(* The router's access-log fields: which backend served the request,
   how many failover hops it took, and whether it was coalesced onto
   another flight. *)
let access_fields m =
  [
    ("backend", match m.meta_backend with Some b -> Json.String b | None -> Json.Null);
    ("failover_count", Json.Int m.failovers);
    ("coalesced", Json.Bool m.coalesced);
  ]

(* --- fleet trace collection --- *)

let trace_export_line = encode_line ~timeout_ms:None (Protocol.Trace_export { clear = false })

(* Drain every reachable backend's span ring, for the shutdown-time
   merge of a --trace'd fleet run. Unreachable or untraced backends are
   skipped — a partial fleet trace is still a trace. *)
let collect_backend_traces fe =
  let t = Server.Frontend.state fe in
  List.filter_map
    (fun b ->
      with_backend ~policy:handoff_policy t b @@ fun call ->
      Option.map
        (fun trace -> (Backend.name b, trace))
        (Option.bind (call trace_export_line) (Json.member_opt "trace")))
    t.backends

(* --- the route role --- *)

let role =
  {
    Server.Frontend.cid_prefix = "fleet-";
    span_cat = "fleet";
    process_name = Some "router";
    originates_traces = true;
    faults = (fun t -> t.faults);
    dispatch;
    no_meta = local_meta;
    access_fields;
    tick = Some probe_due_backends;
  }

let create ?(config = default_config) ?(faults = Server.Faults.none) ?slo endpoints =
  if endpoints = [] then invalid_arg "Router.create: no backends";
  let backends = List.map Backend.create endpoints in
  let ring = Ring.create ~vnodes:config.vnodes (List.map Backend.name backends) in
  let by_name = Hashtbl.create 8 in
  List.iter (fun b -> Hashtbl.replace by_name (Backend.name b) b) backends;
  let t =
    {
      config;
      ring;
      backends;
      by_name;
      flight = Singleflight.create ();
      slo;
      metrics = Server.Metrics.create ();
      registry = Obs.Registry.create ();
      faults;
      circuits = Server.Circuits.create ();
      rng = Physics.Rng.split (Physics.Rng.create ~seed:11);
      rng_lock = Mutex.create ();
      started_at = Unix.gettimeofday ();
    }
  in
  register_collectors t;
  Server.Metrics.observe_cache "circuits" (Server.Circuits.cache t.circuits);
  let fe =
    Server.Frontend.create role ~metrics:t.metrics ~registry:t.registry ?slo
      ~max_line_bytes:config.max_line_bytes t
  in
  Server.Frontend.at_stop fe (fun () -> List.iter Backend.close_idle backends);
  fe

let handle_line = Server.Frontend.handle_line
let metrics fe = (Server.Frontend.state fe).metrics
let ring fe = (Server.Frontend.state fe).ring
let backend_list fe = (Server.Frontend.state fe).backends
let probe_due_backends fe = probe_due_backends (Server.Frontend.state fe)
