(** The aging-analysis daemon: dispatches {!Protocol} requests against
    the {!Flow.Platform}, backed by content-addressed caches and request
    metrics. It is the [serve] role of {!Frontend}, which owns the
    socket, the request envelope and shutdown; a service value is the
    front-end itself, so it is served, stopped and drained with
    {!Frontend.serve}, {!Frontend.stop} and {!Frontend.drain}.

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
      request is answered without touching the platform at all, from
      the bytes the result was printed to when it was computed
      ({!Protocol.cached_result}), not by printing it again. It is
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
    - inside a [batch], each job fails independently with the same error
      vocabulary as a whole request;
    - a {!Faults} plan can inject delays, worker failures, truncated
      writes and forced shedding at named sites for chaos testing.

    Every handled request runs under a correlation id — the envelope's
    ["id"] when present, a generated ["req-N"] otherwise — and its
    dispatch is a ["server"]-category span. *)

type state
type t = (state, unit) Frontend.t

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
    (default {!Faults.none}); its [write] site is read at every
    response, so {!set_faults} arms it too. [drain_timeout_ms] bounds
    how long {!Frontend.drain} waits for in-flight requests (default
    {!Frontend.default_drain_timeout_ms}).
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

val pending : t -> int
(** Requests currently admitted to the compute path. *)

val handle_line : t -> string -> string
(** {!Frontend.handle_line}: one request line (no newline) to one
    response line. *)
