(** The serving front-end shared by both roles: everything between the
    socket and a role's dispatch. A role is [serve] ({!Service}, the
    analysis daemon) or [route] (the fleet router); each supplies only
    its own state, a dispatch function and a few fixed settings
    ({!role}), and gets the same request envelope, error table,
    connection loop and shutdown from here:

    - correlation ids: the envelope's ["id"], or a generated
      [<cid_prefix>N], installed via {!Obs.Ctx} so every span, log
      record and pool chunk produced while handling the request carries
      it;
    - the per-request envelope: the envelope's trace context is adopted,
      the dispatch runs inside a ["request"] span of the role's category,
      and the response's [ok] and one wall-clock reading are recorded in
      {!Metrics} under the endpoint, scored against the SLO, and written
      as one ["request handled"] log record and one JSONL access-log
      record;
    - one exception-to-error table, used for a whole request and for
      each [batch] entry alike;
    - the bounded, CRLF-tolerant connection loop, with the [write] fault
      site and connection accounting;
    - {!stop}, {!drain}, signal handling and {!serve} with the bounded
      drain wait. *)

type ('state, 'meta) t
(** A served role: its state ['state] plus the front-end's own. ['meta]
    is what the role's dispatch reports about a request for the access
    log (the router's backend and failover count; [unit] for [serve]). *)

type ('state, 'meta) role = {
  cid_prefix : string;  (** prefix of generated correlation ids *)
  span_cat : string;  (** category of the per-request ["request"] span *)
  process_name : string option;  (** process name in a [trace_export] *)
  originates_traces : bool;
      (** whether an untraced request starts a trace when a span
          collector is installed (the fleet's client edge does) *)
  faults : 'state -> Faults.t;
      (** the role's current fault plan, read at the [write] site *)
  dispatch : ('state, 'meta) t -> Protocol.envelope -> Json.t * 'meta;
      (** one decoded request to its response envelope; anything it
          raises is answered through the error table below. The
          envelope may hold already-rendered results ({!Json.Raw}). *)
  no_meta : 'meta;  (** the access-log report of a request dispatch did not answer *)
  access_fields : 'meta -> (string * Json.t) list;
      (** extra access-log fields, evaluated only when a log is armed *)
  tick : ('state -> unit) option;
      (** background work run every 50 ms on its own thread from the
          start of {!serve} until its drain wait ends *)
}

val create :
  ('state, 'meta) role ->
  metrics:Metrics.t ->
  registry:Obs.Registry.t ->
  ?slo:Obs.Slo.t ->
  ?drain_timeout_ms:int ->
  max_line_bytes:int ->
  'state ->
  ('state, 'meta) t
(** [metrics] receives the per-endpoint request counts and the
    front-end's event counters ([invalid_requests], [deadline_exceeded],
    [disconnects], [truncated_writes], [trace_exports]); [registry] is
    what the [metrics] op renders. [slo] scores every handled request.
    [drain_timeout_ms] bounds the drain wait of {!serve} (default
    {!default_drain_timeout_ms}). [max_line_bytes] bounds a request
    line. *)

val default_drain_timeout_ms : int
(** 5000. *)

val state : ('state, 'meta) t -> 'state

(** {1 Errors} *)

exception Rejected of Protocol.decode_error
(** A request the role refuses: [bad_request] or [invalid_request] with
    the error object's extra fields (e.g. a [.bench] ["line"]). *)

exception Overloaded of { max_pending : int; retry_after_ms : int }
(** Admission control shed the request. *)

(** One exception-to-error table serves a whole request ({!handle_line}) and
    each [batch] entry ({!batch_entry}) alike: {!Rejected} as given;
    {!Overloaded} to [overloaded] with [retry_after_ms];
    [Parallel.Budget.Deadline_exceeded] to [deadline_exceeded] (counted;
    the message names the envelope's [timeout_ms] when it set one);
    [Json.Type_error] to [bad_request]; {!Faults.Injected},
    [Invalid_argument], [Failure] and anything else to
    [internal_error]. *)

val batch_entry :
  ('state, 'meta) t -> timeout_ms:int option -> ('job -> Json.t) -> 'job -> Json.t
(** [batch_entry fe ~timeout_ms run job] is [run job], or, when it
    raises, the [{"kind":"error","code":...,"message":...}] entry the
    table gives — so one failed job never poisons its siblings. *)

(** {1 Dispatch} *)

val handle_line : ('state, 'meta) t -> string -> string
(** One request line (no newline) in, one response line out. Never
    raises. Malformed JSON yields a [parse_error] response. An envelope
    that does not decode is answered and recorded under endpoint
    ["invalid"] (and counted as [invalid_requests] when its code is
    [invalid_request]); anything the dispatch raises goes through the
    error table. Already-rendered results are copied into the line, not
    parsed. *)

val metrics_result : ('state, 'meta) t -> Json.t
(** The [metrics] op's result: the Prometheus text of the registry. *)

val trace_export : ('state, 'meta) t -> id:string option -> clear:bool -> Json.t
(** The [trace_export] op's response: the installed span ring as a
    Chrome trace under the role's process name, or [invalid_request]
    when no collector is installed. *)

val set_access_log : ('state, 'meta) t -> out_channel -> unit
(** Arms a JSONL access log: one record per handled request —
    [{"ts":...,"cid":...,"endpoint":...,"ok":...,"elapsed_s":...}], the
    role's extra fields, then ["error"] (the error code) on failures.
    Writes are mutex-serialized and flushed per record; the channel
    stays owned by the caller. *)

(** {1 Serving} *)

val serve : ('state, 'meta) t -> Netline.endpoint -> ?on_ready:(unit -> unit) -> unit -> unit
(** Binds, listens and accepts until {!stop} or {!drain}: one thread per
    connection, one request per line (a trailing CR is dropped, blank
    lines are skipped), responses in request order per connection. An
    oversized line is drained and answered with [invalid_request]
    without being buffered whole. A peer vanishing mid-read or mid-write
    costs that connection only (counted as [disconnects]); SIGPIPE is
    ignored. The [write] fault site can delay a response or truncate it
    and drop the connection. After a {!drain}, idle connections close at
    once and [serve] waits up to [drain_timeout_ms] for the requests in
    flight to be answered (each of those connections closes after its
    answer). When [serve] returns, every connection it accepted has been
    shut down, so a peer still holding one reads EOF; each connection's
    thread closes its own descriptor. [on_ready] runs once the socket is
    listening. A pre-existing Unix socket file is replaced; the file is
    unlinked on shutdown. *)

val stop : ('state, 'meta) t -> unit
(** Immediate shutdown: the accept loop exits within its ~200 ms poll
    interval and {!serve} returns without waiting for requests in
    flight; their answers are lost with their connections. Idempotent;
    safe from signal handlers and other threads. *)

val drain : ('state, 'meta) t -> unit
(** Graceful shutdown: {!draining} turns true at once (so [health]
    reports [state:"draining"] and a router probe stops routing here),
    the accept loop stops taking connections, and {!serve} waits —
    bounded — for the requests in flight, not for idle connections:
    once draining, a connection answers the request it holds and closes.
    Idempotent; safe from signal handlers. *)

val at_stop : ('state, 'meta) t -> (unit -> unit) -> unit
(** [at_stop fe f] runs [f] each time {!serve} returns, after every
    connection was shut down (the router closes its idle backend
    connections). *)

val install_signal_handlers : ('state, 'meta) t -> unit
(** SIGINT to {!stop}, SIGTERM to {!drain}. *)

val draining : ('state, 'meta) t -> bool
val connections : ('state, 'meta) t -> int
(** Connections accepted and not yet closed. *)
