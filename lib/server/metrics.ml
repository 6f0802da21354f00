(* Half-decade buckets from 1 us to 100 s; one extra overflow bucket.
   sqrt 10 spacing keeps the quantile estimate within ~1.8x. *)
let bucket_upper_s =
  Array.init 17 (fun i -> 1e-6 *. (Float.sqrt 10.0 ** float_of_int i))

let n_buckets = Array.length bucket_upper_s + 1

let bucket_of elapsed =
  let rec go i =
    if i >= Array.length bucket_upper_s then Array.length bucket_upper_s
    else if elapsed <= bucket_upper_s.(i) then i
    else go (i + 1)
  in
  go 0

type counters = {
  mutable requests : int;
  mutable errors : int;
  mutable total_s : float;
  mutable min_s : float;
  mutable max_s : float;
  counts : int array;
}

type t = {
  table : (string, counters) Hashtbl.t;
  events : (string, int ref) Hashtbl.t;
  lock : Mutex.t;
}

let create () = { table = Hashtbl.create 8; events = Hashtbl.create 8; lock = Mutex.create () }

let incr_counter ?(by = 1) t name =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.events name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.events name (ref by));
  Mutex.unlock t.lock

let counter t name =
  Mutex.lock t.lock;
  let v = match Hashtbl.find_opt t.events name with Some r -> !r | None -> 0 in
  Mutex.unlock t.lock;
  v

let counters t =
  Mutex.lock t.lock;
  let entries = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.events [] in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> compare a b) entries

let counters_json t =
  Json.Assoc (List.map (fun (name, v) -> (name, Json.Int v)) (counters t))

let record t ~endpoint ~ok ~elapsed_s =
  let elapsed_s = Float.max 0.0 elapsed_s in
  Mutex.lock t.lock;
  let c =
    match Hashtbl.find_opt t.table endpoint with
    | Some c -> c
    | None ->
      let c =
        {
          requests = 0;
          errors = 0;
          total_s = 0.0;
          min_s = Float.infinity;
          max_s = 0.0;
          counts = Array.make n_buckets 0;
        }
      in
      Hashtbl.add t.table endpoint c;
      c
  in
  c.requests <- c.requests + 1;
  if not ok then c.errors <- c.errors + 1;
  c.total_s <- c.total_s +. elapsed_s;
  c.min_s <- Float.min c.min_s elapsed_s;
  c.max_s <- Float.max c.max_s elapsed_s;
  c.counts.(bucket_of elapsed_s) <- c.counts.(bucket_of elapsed_s) + 1;
  Mutex.unlock t.lock

type histogram = { bucket_upper_s : float array; counts : int array }

type endpoint_snapshot = {
  endpoint : string;
  requests : int;
  errors : int;
  total_s : float;
  min_s : float;
  max_s : float;
  histogram : histogram;
}

let mean_s s = if s.requests = 0 then 0.0 else s.total_s /. float_of_int s.requests

let quantile_s s q =
  if s.requests = 0 then 0.0
  else begin
    let rank = Float.max 1.0 (Float.of_int s.requests *. q) in
    let rec go i seen =
      if i >= Array.length s.histogram.counts then s.max_s
      else begin
        let seen = seen + s.histogram.counts.(i) in
        if float_of_int seen >= rank then
          if i < Array.length s.histogram.bucket_upper_s then
            (* A bucket upper bound can sit outside the observed range
               (one sample of 2 ms lands in the 3.16 ms bucket), so clamp
               the estimate to [min_s, max_s]: no reported quantile may
               undercut the fastest or exceed the slowest observation. *)
            Float.min (Float.max s.histogram.bucket_upper_s.(i) s.min_s) s.max_s
          else s.max_s
        else go (i + 1) seen
      end
    in
    go 0 0
  end

let snapshot t =
  Mutex.lock t.lock;
  let entries =
    Hashtbl.fold
      (fun endpoint (c : counters) acc ->
        {
          endpoint;
          requests = c.requests;
          errors = c.errors;
          total_s = c.total_s;
          min_s = (if c.requests = 0 then 0.0 else c.min_s);
          max_s = c.max_s;
          histogram = { bucket_upper_s; counts = Array.copy c.counts };
        }
        :: acc)
      t.table []
  in
  Mutex.unlock t.lock;
  List.sort (fun a b -> compare a.endpoint b.endpoint) entries

let to_json t =
  let endpoint_json s =
    ( s.endpoint,
      Json.Assoc
        [
          ("requests", Json.Int s.requests);
          ("errors", Json.Int s.errors);
          ("mean_s", Json.Float (mean_s s));
          ("min_s", Json.Float s.min_s);
          ("max_s", Json.Float s.max_s);
          ("p50_s", Json.Float (quantile_s s 0.5));
          ("p90_s", Json.Float (quantile_s s 0.9));
          ("p95_s", Json.Float (quantile_s s 0.95));
          ("p99_s", Json.Float (quantile_s s 0.99));
          ( "histogram",
            Json.Assoc
              [
                ( "bucket_upper_s",
                  Json.List
                    (Array.to_list (Array.map (fun b -> Json.Float b) s.histogram.bucket_upper_s))
                );
                ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) s.histogram.counts)));
              ] );
        ] )
  in
  Json.Assoc (List.map endpoint_json (snapshot t))

(* Registry bridge: the same per-endpoint counters and histograms, as
   Prometheus families. Counts are cumulative since process start, which
   is exactly what Counter means; the latency histogram reuses the
   half-decade buckets (non-cumulative counts — the registry renders the
   cumulative [le] series itself). *)
let registry_samples t =
  let endpoint_samples s =
    let labels = [ ("endpoint", s.endpoint) ] in
    [
      {
        Obs.Registry.name = "nbti_requests_total";
        help = "Requests handled, by endpoint.";
        labels;
        value = Obs.Registry.Counter (float_of_int s.requests);
      };
      {
        Obs.Registry.name = "nbti_request_errors_total";
        help = "Requests answered with an error, by endpoint.";
        labels;
        value = Obs.Registry.Counter (float_of_int s.errors);
      };
      {
        Obs.Registry.name = "nbti_request_latency_seconds";
        help = "Request wall-clock latency, by endpoint.";
        labels;
        value =
          Obs.Registry.Histogram
            {
              upper_bounds = s.histogram.bucket_upper_s;
              counts = s.histogram.counts;
              sum = s.total_s;
              count = s.requests;
            };
      };
    ]
  in
  let event_samples =
    List.map
      (fun (name, v) ->
        {
          Obs.Registry.name = "nbti_events_total";
          help = "Named operational events (shed, disconnects, deadline_exceeded, ...).";
          labels = [ ("event", name) ];
          value = Obs.Registry.Counter (float_of_int v);
        })
      (counters t)
  in
  List.concat_map endpoint_samples (snapshot t) @ event_samples

let pool_json (s : Parallel.Pool.stats) =
  let last_job =
    match s.Parallel.Pool.last_job with
    | None -> Json.Null
    | Some j ->
      Json.Assoc
        [
          ("items", Json.Int j.Parallel.Pool.job_items);
          ("chunk", Json.Int j.Parallel.Pool.job_chunk);
          ("chunks", Json.Int j.Parallel.Pool.job_chunks);
          ("wall_s", Json.Float j.Parallel.Pool.job_wall_s);
          ("busy_s", Json.Float j.Parallel.Pool.job_busy_s);
          ("utilization", Json.Float j.Parallel.Pool.job_utilization);
        ]
  in
  Json.Assoc
    [
      ("domains", Json.Int s.Parallel.Pool.domains);
      ("jobs", Json.Int s.Parallel.Pool.jobs);
      ("items", Json.Int s.Parallel.Pool.items);
      ("chunks", Json.Int s.Parallel.Pool.chunks);
      ("worker_items", Json.Int s.Parallel.Pool.worker_items);
      ("caller_items", Json.Int s.Parallel.Pool.caller_items);
      ("busy_s", Json.Float s.Parallel.Pool.busy_s);
      ("wall_s", Json.Float s.Parallel.Pool.wall_s);
      ("utilization", Json.Float (Parallel.Pool.utilization s));
      ("speedup_estimate", Json.Float (Parallel.Pool.speedup_estimate s));
      ("last_job", last_job);
    ]

(* --- Cache observation, shared by every cache the service and the
   router keep --- *)

let cache_stats_json label (s : Cache.stats) =
  ( label,
    Json.Assoc
      [
        ("hits", Json.Int s.Cache.hits);
        ("misses", Json.Int s.Cache.misses);
        ("evictions", Json.Int s.Cache.evictions);
        ("size", Json.Int s.Cache.size);
        ("capacity", Json.Int s.Cache.capacity);
        ("bytes_used", Json.Int s.Cache.bytes_used);
        ("max_bytes", match s.Cache.max_bytes with Some b -> Json.Int b | None -> Json.Null);
        ("hit_rate", Json.Float (Cache.hit_rate s));
      ] )

let cache_samples label (s : Cache.stats) =
  let labels = [ ("cache", label) ] in
  let gauge name help v =
    { Obs.Registry.name; help; labels; value = Obs.Registry.Gauge (float_of_int v) }
  in
  let counter name help v =
    { Obs.Registry.name; help; labels; value = Obs.Registry.Counter (float_of_int v) }
  in
  [
    gauge "nbti_cache_entries" "Resident cache entries." s.Cache.size;
    gauge "nbti_cache_bytes" "Approximate resident cache bytes." s.Cache.bytes_used;
    counter "nbti_cache_hits_total" "Cache lookup hits." s.Cache.hits;
    counter "nbti_cache_misses_total" "Cache lookup misses." s.Cache.misses;
    counter "nbti_cache_evictions_total" "Cache evictions." s.Cache.evictions;
  ]

(* The listener runs under the cache lock (see Cache.on_event), so it
   only emits — it never calls back into the cache. *)
let observe_cache label cache =
  Cache.on_event cache (fun event key ->
      let name = match event with Cache.Hit -> "hit" | Cache.Miss -> "miss" | Cache.Evict -> "evict" in
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~cat:"cache"
          ~args:[ ("cache", Obs.Fields.Str label); ("key", Obs.Fields.Str key) ]
          ("cache." ^ name);
      if Obs.Log.would_log Obs.Log.Debug then
        Obs.Log.debug
          ~fields:
            [
              ("cache", Obs.Fields.Str label);
              ("event", Obs.Fields.Str name);
              ("key", Obs.Fields.Str key);
            ]
          "cache event")
