(** Circuit resolution for the request path: turns a
    {!Protocol.circuit_spec} into its netlist and structural digest once
    per process, and answers repeats from a bounded {!Cache}.

    - Named circuits are keyed by name.
    - Inline [.bench] text is keyed by an MD5 of its content, and the
      stored text is compared on every hit, so a different text never
      receives a cached netlist.
    - Unknown names, parse errors and netlists with nothing to time
      ({!Circuit.Netlist.timing_problem}) are never cached; oversized
      text is refused before it is hashed.

    A repeat therefore returns the {e same} netlist value, which lets
    {!Compiled.Arena.get} hit its physical-equality ring instead of
    digesting again. Sharing one value across requests and domains is
    sound because netlists are never mutated after construction.
    Thread-safe: the service and the fleet router both resolve through
    this module, so the digests they put in {!Protocol.job_cache_key}
    are byte-equal. *)

type t

type resolved = { net : Circuit.Netlist.t; digest : string  (** {!Circuit.Netlist.digest} *) }

val default_capacity : int
(** Resident circuits (64). *)

val default_max_bytes : int
(** Approximate resident bytes (32 MiB): netlists are weighed at 128
    bytes per node plus the inline text they were parsed from. *)

val create : ?capacity:int -> ?max_bytes:int -> unit -> t

val resolve :
  t -> max_bench_bytes:int -> Protocol.circuit_spec -> (resolved, Protocol.decode_error) result
(** The netlist a request names, whose name is
    {!Protocol.circuit_name} of the spec. Errors are the wire errors the request
    gets: [bad_request] for an unknown name, [invalid_request] for text
    longer than [max_bench_bytes], a malformed netlist (with the
    offending 1-based ["line"] in [details] when known) or one where no
    primary output is a gate. *)

type entry

val cache : t -> entry Cache.t
(** The underlying LRU, for observation only: its stats and event
    listener feed [stats], [metrics] and trace markers like the other
    caches. *)
