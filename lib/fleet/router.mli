(** The fleet front end: one router process speaking the standard wire
    protocol, consistent-hash routing every job to a backend keyed by
    netlist digest and name + platform fingerprint (= the backend's
    cache key, computed by the same {!Server.Circuits} resolver, whose
    [circuits] cache the router's [stats] and [metrics] report), with:

    - {e singleflight coalescing}: identical concurrent requests
      collapse to one backend flight; followers share the leader's
      payload or error.
    - {e probe-driven health}: each backend walks
      Up → Suspect → Down → Recovering → Up (plus Draining when the
      backend's own [health] reports a drain), probed with
      capped-jitter backoff while failing.
    - {e connection reuse}: forwards run on idle connections each
      {!Backend} keeps open (a fixed cap), and the backend's answer
      bytes are passed through with the client's id spliced in
      ({!Server.Protocol.forwarded_result}); [backend_connects] in
      [stats] and [metrics] counts the connections opened to forward.
    - {e bounded failover}: a request whose owner dies is rehashed to
      the next live owner (safe — every routed op is idempotent), at
      most [failover_attempts] times, then fails with [fleet_degraded]
      (retryable, carries [retry_after_ms]).
    - {e warm-cache handoff}: [cache_export]/[cache_import] move hot
      entries to a recovered backend (from its peers) or from a
      draining one (to each key's next owner).
    - {e per-shard observability}: router-side counters
      (coalesced, failovers, handoff_keys/bytes, ...) and per-backend
      state gauges, surfaced through the router's own [stats] and
      [metrics] ops.
    - {e metrics federation}: every successful probe also scrapes the
      backend's [metrics] op; the [cluster_metrics] op renders the
      router's own registry, fleet-aggregated latency histograms and
      every backend's last scrape (relabelled [backend="..."]) as one
      Prometheus exposition.
    - {e distributed tracing}: the router adopts the client's ["trace"]
      context (or originates one when a collector is installed), spans
      every request and forward attempt, restamps the context onto
      backend hops, serves [trace_export], and {!collect_backend_traces}
      drains backend span rings for a {!Server.Tracefile.merge}.
    - {e SLOs}: with [?slo], every request is scored against its op's
      objective; burn rates surface in [stats] and [metrics].

    The router is the [route] role of {!Server.Frontend}, which owns the
    socket, the request envelope and shutdown exactly as for [serve]: a
    router value is the front-end itself, served with
    {!Server.Frontend.serve} (which runs the probe thread for the
    duration), stopped with {!Server.Frontend.stop} and drained with
    {!Server.Frontend.drain}. Generated correlation ids read ["fleet-N"],
    request spans are ["fleet"]-category, and an untraced request starts
    a trace when a collector is installed (the router is the fleet's
    client edge). *)

type config = {
  vnodes : int;  (** virtual nodes per backend on the hash ring *)
  failover_attempts : int;  (** max backends tried per request *)
  probe_interval_ms : int;  (** healthy-backend probe cadence *)
  probe_backoff_cap_ms : int;  (** ceiling for failing-backend probe backoff *)
  probe_timeout_ms : int;  (** per-probe read timeout *)
  handoff_max_entries : int;  (** cache entries moved per handoff export *)
  degraded_retry_after_ms : int;  (** hint attached to [fleet_degraded] *)
  max_line_bytes : int;  (** client request line bound *)
}

val default_config : config

type state
type meta
type t = (state, meta) Server.Frontend.t

val create :
  ?config:config -> ?faults:Server.Faults.t -> ?slo:Obs.Slo.t -> Server.Netline.endpoint list -> t
(** Fleet over the given backends (their canonical endpoint strings are
    the ring identities — raises [Invalid_argument] on duplicates or an
    empty list). Fault sites honored router-side: [connect] (forwarding
    connections), [probe], [handoff], and the front-end's [write]. [slo]
    arms per-op objectives scored on every handled request. The access
    log ({!Server.Frontend.set_access_log}) extends the backend shape
    with routing fields — ["backend"] (the endpoint that served the
    forward, null for local/degraded answers), ["failover_count"] (extra
    hops beyond the first owner; summed across a batch) and
    ["coalesced"] (this request rode another request's flight). A drain
    ({!Server.Frontend.drain}, SIGTERM) reports [state:"draining"] in
    [health], stops accepting, and waits up to
    {!Server.Frontend.default_drain_timeout_ms} for the forwards in
    flight to finish while probes keep running. When its
    {!Server.Frontend.serve} returns, the router closes its idle backend
    connections. *)

val collect_backend_traces : t -> (string * Server.Json.t) list
(** Drains each reachable backend's span ring via [trace_export]
    ([clear:false]) and returns [(backend name, Chrome trace object)]
    pairs — the inputs, together with the router's own export, of a
    {!Server.Tracefile.merge}. Unreachable or untraced backends are
    skipped. *)

val handle_line : t -> string -> string
(** {!Server.Frontend.handle_line}: one request line in, one response
    line out (no trailing newline). *)

val probe_due_backends : t -> unit
(** One probe pass over the backends whose probes are due (the probe
    thread's tick); exposed for deterministic tests. *)

val metrics : t -> Server.Metrics.t
val ring : t -> Ring.t
val backend_list : t -> Backend.t list
