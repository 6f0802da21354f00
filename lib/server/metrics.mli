(** Per-endpoint request metrics for the [stats] endpoint: request and
    error counts plus a fixed-bucket logarithmic latency histogram
    (1 µs … 100 s, half-decade buckets). Thread-safe. *)

type t

val create : unit -> t

val record : t -> endpoint:string -> ok:bool -> elapsed_s:float -> unit
(** Accounts one request against [endpoint] ("analyze", "stats", ...):
    an error when [ok] is false. *)

(** {1 Named event counters}

    Free-form monotonic counters for failure classes and operational
    events ("disconnects", "shed", "deadline_exceeded", ...). Counters
    spring into existence at first increment. *)

val incr_counter : ?by:int -> t -> string -> unit
val counter : t -> string -> int
(** 0 for a counter never incremented. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val counters_json : t -> Json.t
(** [{"disconnects": 3, ...}] — the [stats] wire shape. *)

type histogram = {
  bucket_upper_s : float array;  (** inclusive upper bound of each bucket [s] *)
  counts : int array;  (** same length; the last bucket is the overflow *)
}

type endpoint_snapshot = {
  endpoint : string;
  requests : int;
  errors : int;
  total_s : float;
  min_s : float;  (** 0 when [requests = 0] *)
  max_s : float;
  histogram : histogram;
}

val mean_s : endpoint_snapshot -> float
val quantile_s : endpoint_snapshot -> float -> float
(** Histogram-estimated latency quantile (e.g. [0.5], [0.99]): the upper
    bound of the bucket holding that rank — an upper estimate, exact to
    bucket resolution, clamped to the observed [[min_s, max_s]] range so
    no quantile undercuts the fastest or exceeds the slowest request.
    0 when the endpoint has no requests. *)

val snapshot : t -> endpoint_snapshot list
(** Sorted by endpoint name. *)

val to_json : t -> Json.t
(** The [stats] wire shape: per-endpoint counts, mean/min/max,
    p50/p90/p95/p99 and the raw histogram buckets. *)

val registry_samples : t -> Obs.Registry.sample list
(** The same data as Prometheus families, for an {!Obs.Registry}
    collector: [nbti_requests_total{endpoint}],
    [nbti_request_errors_total{endpoint}], the
    [nbti_request_latency_seconds{endpoint}] histogram and one
    [nbti_events_total{event}] counter per named event. *)

val pool_json : Parallel.Pool.stats -> Json.t
(** Wire shape of a work-pool counter snapshot: domain count, job/item
    totals, worker vs caller item split, busy and wall seconds, and the
    derived utilization / parallel-speedup estimates. *)

(** {1 Cache observation}

    One wire shape for every {!Cache} a process keeps (the service's
    [results], [prepared] and [circuits]; the router's [circuits]). *)

val cache_stats_json : string -> Cache.stats -> string * Json.t
(** [(label, {"hits":..,"misses":..,"evictions":..,"size":..,
    "capacity":..,"bytes_used":..,"max_bytes":..,"hit_rate":..})] — one
    member of the [stats] endpoint's ["cache"] object. *)

val cache_samples : string -> Cache.stats -> Obs.Registry.sample list
(** The same counters as Prometheus families labelled [cache=label]:
    [nbti_cache_entries], [nbti_cache_bytes], and the
    [nbti_cache_{hits,misses,evictions}_total] counters. *)

val observe_cache : string -> 'a Cache.t -> unit
(** Wires the cache's hits, misses and evictions to [cache.hit] /
    [cache.miss] / [cache.evict] trace instants (with [cache=label] and
    the key) and debug log records. *)
