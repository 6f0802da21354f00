(** Resilient wire-protocol client.

    One request line out, one response line in, over a lazily
    (re)established connection to a single {!Netline.endpoint}. The
    retry loop and its failure classification live here so the CLI
    [request] command and the fleet router's backend connector behave
    identically; every protocol operation is idempotent
    (content-addressed, cached), so retrying is always {e safe} — the
    policy only decides when it is useful.

    Classified as retryable: connection refusal (ECONNREFUSED, or
    ENOENT on a not-yet-bound Unix socket — a backend mid-restart looks
    exactly like an overloaded one), lost / truncated / unparseable
    responses, and responses whose error code is retryable per
    {!Protocol.retryable_code_string} (honoring their [retry_after_ms]
    hint), and read timeouts. Everything else — including structured
    non-retryable errors — is a final answer. A failed connect closes
    its descriptor, so endless retries against a dead endpoint leak
    nothing.

    The connection stays open between round trips. One kept from an
    earlier round trip that fails before any answer byte arrives (the
    server closed it while it sat idle, or restarted) is replaced by a
    fresh connection at once, within the same attempt: no backoff, no
    retry counted. Any other transport failure, a read timeout or an
    unparseable answer drops the connection. *)

type t

val create : ?read_timeout_s:float -> ?on_connect:(unit -> unit) -> Netline.endpoint -> t
(** [read_timeout_s] arms SO_RCVTIMEO on each established connection so
    a deadline-bounded request cannot hang the caller on a wedged
    server. [on_connect] runs after each connection is established (the
    router counts them). No connection is opened until the first
    attempt. *)

val endpoint : t -> Netline.endpoint

val set_read_timeout : t -> float option -> unit
(** Replaces [read_timeout_s] ([None]: no timeout), on the open
    connection too. *)

val connected : t -> bool
(** Whether a connection is open. *)

val close : t -> unit
(** Drops the current connection, if any. Idempotent; {!attempt} and
    {!call} transparently reconnect afterwards. *)

type attempt =
  | Done of string  (** a response line: success {e or} a non-retryable error *)
  | Retryable of { response : string option; reason : string; retry_after_ms : int option }
      (** transient failure; [response] carries the server's last word
          when there was one (e.g. the [overloaded] envelope) *)

val attempt : t -> string -> attempt
(** One send/receive round trip of a single request line (no newline).
    Never raises on transport failure — broken connections are closed
    and reported as [Retryable]. *)

type failure = { attempts : int; reason : string; last_response : string option }

val call :
  t ->
  ?policy:Retry.policy ->
  ?rng:Physics.Rng.t ->
  ?on_retry:(attempt:int -> reason:string -> sleep_ms:int -> unit) ->
  string ->
  (string, failure) result
(** {!attempt} under a {!Retry} policy: transient failures back off
    (capped exponential, equal jitter, honoring [retry_after_ms]) and
    retry up to [policy.retries] times. [on_retry] fires before each
    backoff sleep. [rng] defaults to a fixed-seed stream; pass one for
    reproducible schedules across calls.

    When the calling thread has a distributed-trace context installed
    (see {!Obs.Ctx.with_trace}), the request object's ["trace"] member
    is (re)stamped from {!Obs.Trace.propagation_context} before
    sending, so the receiving process parents its spans onto the span
    this call runs under. {!attempt} sends its line verbatim. *)

val call_parsed :
  t ->
  ?policy:Retry.policy ->
  ?rng:Physics.Rng.t ->
  ?on_retry:(attempt:int -> reason:string -> sleep_ms:int -> unit) ->
  string ->
  (string * Json.t, failure) result
(** {!call} that also returns the parse of the response line, which the
    classification already made. *)
