(** Deterministic multicore execution for the Monte-Carlo and search hot
    paths.

    A persistent pool of stdlib [Domain]s with chunked work distribution.
    The contract every entry point honors: {b results are bit-identical
    regardless of domain count}, including [domains:1]. This holds
    because
    - per-item results land in their input slot ([map], [mapi], [init]),
      so scheduling order never reaches the caller;
    - reductions ([map_reduce]) fold the per-item results sequentially in
      item order {e after} the parallel phase, never per-chunk or in
      completion order — floating-point accumulation order is fixed;
    - the [~rng] variants derive one independent splitmix64 stream per
      work item by splitting the parent generator sequentially (item 0
      first), before any work is dispatched. Which domain runs an item is
      irrelevant to the stream it consumes.

    Work items must be pure up to their own arguments (and their private
    RNG stream): they run concurrently on uninstrumented domains.

    Nested calls (a work item that itself calls into the pool, e.g. a
    batched server job whose signal-probability pass is parallelized) are
    detected via domain-local state and run inline and sequentially, so
    reentrancy cannot deadlock the pool and determinism is preserved. *)

type t

val create : ?domains:int -> unit -> t
(** A pool of [domains] total participants: the calling domain plus
    [domains - 1] persistent worker domains (so [create ~domains:1] spawns
    nothing and every entry point runs inline). Defaults to [NBTI_JOBS]
    when that environment variable holds a positive integer, otherwise
    {!Domain.recommended_domain_count}. Clamped to [[1, 64]].
    @raise Invalid_argument when [domains < 1]. *)

val domains : t -> int
(** Total participants (callers + workers), as configured. *)

val shutdown : t -> unit
(** Joins the worker domains. Idempotent. After shutdown the pool is
    still usable — every call simply runs inline. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val default : unit -> t
(** The process-wide shared pool, created on first use (see {!create}
    for sizing) and shut down at exit. All hot paths fall back to this
    pool when no explicit pool is given. *)

val configure_default : domains:int -> unit
(** Replaces the shared pool with one of [domains] participants (the
    [--jobs N] knob). Shuts the previous shared pool down. *)

(** {1 Parallel iteration}

    All functions raise in the caller whatever exception a work item
    raised (the first one observed, with its backtrace); remaining
    chunks are abandoned. [chunk] is the number of consecutive items a
    participant claims at a time; when unspecified it defaults to
    [max 1 (n / (8 * domains))] — 8 chunks per participant, so per-item
    dispatch overhead amortizes over the chunk while imbalance can
    still be absorbed. It affects scheduling only, never results.

    [budget] (default {!Budget.unlimited}) is polled cooperatively:
    every participant checks it before claiming a chunk (and the inline
    fallback checks it before every item), so an exhausted budget fails
    the region with {!Budget.Deadline_exceeded} in the caller after at
    most one in-flight chunk per participant. The budget never affects
    the results of a region that completes. *)

val map : t -> ?chunk:int -> ?budget:Budget.t -> ('a -> 'b) -> 'a array -> 'b array
val mapi : t -> ?chunk:int -> ?budget:Budget.t -> (int -> 'a -> 'b) -> 'a array -> 'b array
val init : t -> ?chunk:int -> ?budget:Budget.t -> int -> (int -> 'a) -> 'a array

val iter_ranges : t -> ?chunk:int -> ?budget:Budget.t -> int -> (int -> int -> unit) -> unit
(** [iter_ranges t n f] partitions [0, n) into chunks and calls
    [f lo hi] once per claimed chunk (half-open range). This is the
    chunk-grained primitive under all per-item entry points: use it to
    allocate scratch once per chunk instead of once per item. [f] must
    confine its writes to state owned by indices in [lo, hi); the
    budget is polled before every chunk claim. Bit-identity across
    domain counts is the caller's obligation here — it holds whenever
    [f lo hi] computes exactly what items [lo..hi-1] would compute
    independently (per-index result slots, per-index RNG streams). *)

val map_reduce :
  t ->
  ?chunk:int ->
  ?budget:Budget.t ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
(** Ordered reduction: [reduce] folds the mapped results left-to-right in
    item order on the calling domain, after the parallel map. *)

(** {1 Independent RNG streams} *)

val split_streams : Physics.Rng.t -> int -> Physics.Rng.t array
(** [n] generators obtained by splitting [rng] sequentially ([n] splits,
    item order). The parent advances exactly [n] times however the items
    are later scheduled. *)

val init_rng :
  t ->
  ?chunk:int ->
  ?budget:Budget.t ->
  rng:Physics.Rng.t ->
  int ->
  (Physics.Rng.t -> int -> 'a) ->
  'a array
(** [init] with a private stream per index. *)

(** {1 Utilization} *)

type job_stats = {
  job_items : int;  (** items executed by the job *)
  job_chunk : int;  (** chunk size the job ran with (after auto-sizing) *)
  job_chunks : int;  (** chunks executed *)
  job_wall_s : float;  (** caller-side region wall time *)
  job_busy_s : float;  (** summed per-participant in-region time *)
  job_utilization : float;  (** busy / (wall * domains) for this job *)
}
(** Per-job utilization snapshot, for chunk tuning. *)

type stats = {
  domains : int;  (** configured participants *)
  jobs : int;  (** parallel regions executed *)
  items : int;  (** work items executed *)
  chunks : int;  (** chunks executed (dispatch grain actually used) *)
  worker_items : int;  (** items that ran on worker domains *)
  caller_items : int;  (** items that ran on the submitting domain *)
  busy_s : float;  (** summed per-participant in-region wall time *)
  wall_s : float;  (** summed caller-side region wall time *)
  last_job : job_stats option;  (** most recent parallel (non-inline) region *)
}

val stats : t -> stats

val utilization : stats -> float
(** [busy_s / (wall_s * domains)]: 1.0 means every participant was busy
    for every parallel region's full duration; 0 when no jobs ran. *)

val speedup_estimate : stats -> float
(** [busy_s / wall_s]: effective parallelism actually achieved. *)
