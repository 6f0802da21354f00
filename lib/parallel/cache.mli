(** Bounded, thread-safe LRU table: the one least-recently-used cache of
    the project ([Server.Cache] re-exports it).

    The service keys its result cache on content digests — a canonical
    hash of the netlist plus the config fingerprint (and standby state
    for full analyses) — so identical requests are answered without
    recomputing the Fig. 6 flow; the compiled memo tables (arenas,
    timing, duty and shift tables, aging shapes, config fingerprints)
    key theirs on [Compiled.Memo.Fp] encodings. Capacity is a hard entry
    bound; an optional [max_bytes] budget additionally bounds the
    {e approximate} resident size, as measured by a caller-supplied
    [weight] function. Inserting past either bound evicts
    least-recently-used entries. Every lookup updates recency; hit, miss
    and eviction counters are kept for the [stats] endpoint. *)

type 'a t

val create : capacity:int -> ?max_bytes:int -> ?weight:('a -> int) -> unit -> 'a t
(** [weight] maps a value to its approximate byte cost (default: 1 per
    entry, which makes [max_bytes] an alternative entry bound). The
    weight of a value is sampled once at insertion.
    @raise Invalid_argument when [capacity < 1] or [max_bytes < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val bytes_used : 'a t -> int
(** Sum of the weights of resident entries. *)

val find : 'a t -> string -> 'a option
(** Counts a hit (and refreshes recency) or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts or replaces, then evicts LRU entries until both bounds hold
    again. One entry is always kept, so a value heavier than the whole
    byte budget still caches — the budget is approximate. *)

type event = Hit | Miss | Evict

val on_event : 'a t -> (event -> string -> unit) -> unit
(** Installs an observation listener, called with the event and the
    affected key on every lookup hit, lookup miss and eviction. The
    listener runs {e while the cache lock is held}: it must not call
    back into the cache, and it should be fast (the service wires it to
    trace markers and debug logging). A raising listener is silenced —
    observability never changes cache semantics. One listener at a time;
    a second call replaces the first. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a * bool
(** [find_or_add t key compute] returns [(value, was_hit)]. The compute
    function runs outside any internal lock only logically — the whole
    cache is protected by one mutex, but [compute] is invoked without
    holding it, so concurrent misses on the same key may compute twice
    (last insert wins); results are content-addressed so both are
    identical. *)

val entries : ?max:int -> 'a t -> (string * 'a) list
(** Snapshot of resident entries in recency order, most recent first,
    truncated to [max] when given. Pure observation: touches no
    counters and no recency state — the fleet's warm-cache handoff
    must not masquerade as traffic. *)

val clear : 'a t -> unit
(** Drops all entries; counters are preserved. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
  bytes_used : int;
  max_bytes : int option;
}

val stats : 'a t -> stats
val hit_rate : stats -> float
(** Hits over lookups; 0 before the first lookup. *)
