(** The aging-analysis daemon: dispatches {!Protocol} requests against
    the {!Flow.Platform}, backed by content-addressed caches and request
    metrics, and serves newline-delimited JSON over a Unix-domain or TCP
    socket.

    Three cache tiers sit in front of the platform:
    - a [circuits] resolver ({!Circuits}) keyed on the circuit name or
      the inline text: each circuit is generated or parsed, and
      digested, once per process, and repeats get the same netlist
      value;
    - a [prepared] cache keyed on (netlist digest, netlist name, prepare
      fingerprint): signal probabilities and leakage tables are reused
      across every request on the same circuit, including sweeps over
      lifetime / RAS / temperatures that share the SP and leakage
      settings;
    - a result cache keyed on {!Protocol.job_cache_key}: an identical
      request is answered without touching the platform at all. It is
      additionally bounded by an approximate byte budget.

    {b Failure model.} Dispatch is thread-safe and the daemon is
    designed to survive misbehaving clients and its own overload:
    - admission to the compute path is bounded ([max_pending]); requests
      beyond the bound get a structured [overloaded] error carrying a
      [retry_after_ms] hint rather than queueing unboundedly. Admission
      guards only cache {e misses}: a shedding server still answers
      cache hits, [health] and [stats] (degraded mode);
    - every request may carry a [timeout_ms] budget; the flow polls it
      at stage and chunk boundaries and answers [deadline_exceeded]
      when it runs out;
    - oversized request lines, oversized batches, oversized netlists and
      malformed [.bench] text all map to positioned [invalid_request]
      errors — {!limits} are enforced, never trusted;
    - a peer vanishing mid-read or mid-write (EPIPE, ECONNRESET) costs
      that connection only; SIGPIPE is ignored in {!serve} and
      disconnects are counted in [stats];
    - a {!Faults} plan can inject delays, worker failures, truncated
      writes and forced shedding at named sites for chaos testing. *)

type t

type limits = {
  max_line_bytes : int;  (** longest accepted request line (default 4 MiB) *)
  max_batch_jobs : int;  (** most jobs in one [batch] (default 64) *)
  max_gates : int;  (** largest accepted netlist (default 10{^6} gates) *)
  default_timeout_ms : int option;
      (** budget applied when a request carries no [timeout_ms]
          (default: none, i.e. unlimited) *)
  shed_retry_after_ms : int;
      (** the [retry_after_ms] hint sent with [overloaded] (default 250) *)
}

val default_limits : limits

val create :
  ?result_capacity:int ->
  ?result_max_bytes:int ->
  ?prepared_capacity:int ->
  ?max_pending:int ->
  ?limits:limits ->
  ?faults:Faults.t ->
  ?drain_timeout_ms:int ->
  ?pool:Parallel.Pool.t ->
  ?slo:Obs.Slo.t ->
  unit ->
  t
(** [result_capacity] bounds the result cache entries (default 256) and
    [result_max_bytes] its approximate resident bytes (default 64 MiB,
    measured as serialized JSON size); [prepared_capacity] bounds the
    prepared-pipeline cache (default 32 — these entries hold whole
    leakage tables and SP arrays, so the bound is deliberately small);
    the circuit resolver keeps its fixed {!Circuits.default_capacity}
    and {!Circuits.default_max_bytes} bounds;
    [max_pending] bounds concurrent compute-path requests before
    [overloaded] (default 64). [faults] arms a fault-injection plan
    (default {!Faults.none}). [drain_timeout_ms] bounds how long
    {!drain} waits for in-flight connections (default 5000).
    [pool] (default {!Parallel.Pool.default})
    runs every compute path — Monte-Carlo SPs, IVC search, and [batch]
    job fan-out; results stay bit-identical for any domain count, and
    pool counters are reported by [stats]. [slo] arms per-op service
    objectives: every handled request is scored against its op's
    objective (error or over-threshold latency counts as bad) and the
    multi-window burn rates surface in [stats] under ["slo"] and in
    [metrics] as [nbti_slo_*] gauges. *)

val set_faults : t -> Faults.t -> unit
(** Swap the fault plan at runtime (used by tests to arm faults after
    priming caches). *)

val faults : t -> Faults.t

val pending : t -> int
(** Requests currently admitted to the compute path. *)

val draining : t -> bool
(** Whether {!drain} has been requested; the [health] op reports
    [state:"draining"] from the same flag. *)

val connections : t -> int
(** Connection threads currently open. *)

(** {1 Observability}

    Every handled request runs under a correlation id — the envelope's
    ["id"] when present, a generated ["req-N"] otherwise — installed via
    {!Obs.Ctx} so spans, log records, pool chunks and cache events
    produced while handling it all carry the same id. Dispatch is a
    ["server"]-category span; cache hits / misses / evictions surface as
    trace markers and debug log records. *)

val registry : t -> Obs.Registry.t
(** The service's metrics registry: request counts / errors / latency
    histograms per endpoint, named event counters, cache and pool and
    admission gauges, uptime, and an [nbti_build_info] constant. Served
    in Prometheus text form by the [metrics] endpoint; exposed here for
    embedding and tests. *)

val set_access_log : t -> out_channel -> unit
(** Arms a JSONL access log: one record per handled request —
    [{"ts":...,"cid":...,"endpoint":...,"ok":...,"elapsed_s":...}] plus
    ["error"] (the error code) on failures. Writes are mutex-serialized
    and flushed per record; the channel stays owned by the caller. *)

(** {1 In-process dispatch} *)

val handle : t -> Json.t -> Json.t
(** One request envelope in, one response envelope out. Never raises:
    protocol and platform errors come back as structured [error]
    responses — [bad_request], positioned [invalid_request],
    [overloaded] (+[retry_after_ms]), [deadline_exceeded] — and
    unexpected exceptions as [internal_error]. Inside a [batch], each
    job fails independently with the same code vocabulary. *)

val handle_line : t -> string -> string
(** {!handle} composed with the codec: one request line (no newline) to
    one response line. Malformed JSON yields a [parse_error] response. *)

(** {1 Serving} *)

type endpoint = Netline.endpoint = Unix_socket of string | Tcp of string * int

val endpoint_of_string : string -> (endpoint, string) result
(** ["unix:/path/to.sock"] or ["tcp:HOST:PORT"]; a bare path with no
    scheme is a Unix socket. (Shared spelling: {!Netline.endpoint_of_string}.) *)

val serve : t -> endpoint -> ?on_ready:(unit -> unit) -> unit -> unit
(** Binds, listens and accepts until {!stop}: one thread per connection,
    one request per line, responses in request order per connection.
    Ignores SIGPIPE for the whole process (a vanished peer must be a
    write error, not a fatal signal). Request lines are read through a
    bounded reader, so an oversized line is drained and answered with
    [invalid_request] without ever being buffered whole. [on_ready]
    runs once the socket is listening (used by tests and by the CLI to
    print the address). A pre-existing Unix socket file is replaced;
    the file is unlinked on shutdown. Requires the [threads] runtime. *)

val stop : t -> unit
(** Immediate shutdown: the accept loop (which polls a stop flag — on
    Linux a close from another thread would not wake a blocked accept)
    exits within its ~200 ms poll interval, closes the listening socket
    and unlinks the Unix socket file; in-flight connections finish their
    current line but {!serve} does not wait for them. Idempotent; safe
    from signal handlers and other threads. *)

val drain : t -> unit
(** Graceful shutdown: {!stop} plus a bounded wait. The [health] op
    reports [state:"draining"] immediately (so a fleet router's probe
    stops routing here before the socket closes), the accept loop stops
    taking new connections, and {!serve} waits up to [drain_timeout_ms]
    for open connections to finish their in-flight requests before
    returning. Idempotent; safe from signal handlers. *)

val install_signal_handlers : t -> unit
(** Daemon mode: SIGINT routes to {!stop} (immediate), SIGTERM to
    {!drain} (graceful — the rolling-restart signal). *)

val uptime_s : t -> float
