(** Consistent-hash ring with virtual nodes.

    The router places a request's cache key — circuit digest and name +
    config fingerprint, see {!Server.Protocol.job_cache_key} — on the ring and
    forwards it to the key's owner, so identical analyses land on the
    same backend (one warm cache, one compute) no matter which client
    asks.

    The ring is immutable and built over the {e configured} backend
    set; health is a routing-time filter applied to {!owners}. Hence
    stability: a dead backend's keys move to their next-preference
    owner and {e only} those keys move; every key whose owner is alive
    keeps it. Adding one backend to a ring of [N] remaps an expected
    [1/(N+1)] of keys (the vnode spread makes the variance small), and
    any remapped key moves {e to} the new backend, never between old
    ones. *)

type t

val create : ?vnodes:int -> string list -> t
(** [create names] builds the ring; each backend contributes [vnodes]
    (default 64) hash points. Deterministic across processes (MD5-based
    points). @raise Invalid_argument on an empty list, duplicate or
    empty names, or [vnodes < 1]. *)

val backends : t -> string list
(** Configured backend names, in construction order. *)

val vnodes : t -> int

val owners : t -> string -> string list
(** Full preference sequence for a key: every configured backend
    exactly once, ordered clockwise from the key's hash point. The head
    is the key's owner; the tail is its failover order. Deterministic. *)

val owner : t -> live:(string -> bool) -> string -> string option
(** First backend in {!owners} satisfying [live]; [None] when none
    does. *)

val hash_key : string -> int
(** The ring's key hash (56-bit non-negative MD5 prefix); exposed for
    tests. *)
