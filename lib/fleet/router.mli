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
      objective; burn rates surface in [stats] and [metrics]. *)

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

type t

val create :
  ?config:config -> ?faults:Server.Faults.t -> ?slo:Obs.Slo.t -> Server.Netline.endpoint list -> t
(** Fleet over the given backends (their canonical endpoint strings are
    the ring identities — raises [Invalid_argument] on duplicates or an
    empty list). Fault sites honored router-side: [connect] (forwarding
    connections), [probe], [handoff]. [slo] arms per-op objectives
    scored on every handled request. *)

val set_access_log : t -> out_channel -> unit
(** Arms a JSONL access log: the backend access-log shape
    ([ts]/[cid]/[endpoint]/[ok]/[elapsed_s] plus [error]) extended with
    routing fields — ["backend"] (the endpoint that served the forward,
    null for local/degraded answers), ["failover_count"] (extra hops
    beyond the first owner; summed across a batch) and ["coalesced"]
    (this request rode another request's flight). *)

val collect_backend_traces : t -> (string * Server.Json.t) list
(** Drains each reachable backend's span ring via [trace_export]
    ([clear:false]) and returns [(backend name, Chrome trace object)]
    pairs — the inputs, together with the router's own export, of a
    {!Server.Tracefile.merge}. Unreachable or untraced backends are
    skipped. *)

val handle_line : t -> string -> string
(** One request line in, one response line out (no trailing newline) —
    the protocol entry point, also used directly by tests. *)

val serve : t -> Server.Netline.endpoint -> ?on_ready:(unit -> unit) -> unit -> unit
(** Listens and serves until {!stop}; runs the probe thread for the
    duration. Blocks the calling thread. *)

val stop : t -> unit
val install_signal_handlers : t -> unit
(** SIGINT and SIGTERM both {!stop} the router — it holds no state
    worth draining; in-flight forwards finish on their own threads. *)

val probe_due_backends : t -> unit
(** One probe pass over the backends whose probes are due (the probe
    thread's tick); exposed for deterministic tests. *)

val health_result : t -> Server.Json.t
val stats_result : t -> Server.Json.t
val metrics : t -> Server.Metrics.t
val registry : t -> Obs.Registry.t
val ring : t -> Ring.t
val backend_list : t -> Backend.t list
