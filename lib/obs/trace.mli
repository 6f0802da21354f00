(** Nestable spans for the aging-analysis pipeline, recorded into a
    lock-protected ring buffer and exportable as Chrome [trace_event]
    JSON (loadable in [chrome://tracing] / Perfetto) or as a plain-text
    flame summary.

    One collector at a time is {e installed} process-wide; every
    {!with_span} in any layer then records into it. With no collector
    installed, {!with_span} is a single atomic load plus a direct call
    of the thunk — the disabled cost is one branch, verified by the
    tracing-overhead section of [bench --perf-json].

    Span nesting is tracked per (domain, thread): each completed span
    records its semicolon-joined ancestry path (e.g.
    ["request;flow.prepare;flow.signal_prob"]), which is what both the
    flame summary and the Chrome export's [args.path] report. Spans also
    capture the correlation id installed via {!Ctx} at completion time,
    so every span of one request carries that request's id.

    For {e distributed} traces, every span additionally carries a
    process-local id ({!field-span.seq}) and a parent reference: an
    enclosing span on the same thread when there is one, otherwise the
    remote parent span carried by the installed {!Ctx.trace} context.
    That is what lets a backend's [request] span nest under the router's
    forwarding span after a merge. *)

type t
(** A span collector: a bounded ring buffer of completed spans. *)

type parent =
  | Root  (** no enclosing span and no trace context with a remote parent *)
  | Span of int  (** sequence id of the enclosing span on this thread *)
  | Remote of string  (** wire-format span id of the parent in another process *)

type span = {
  name : string;
  cat : string;  (** coarse grouping: ["flow"], ["pool"], ["server"], ... *)
  path : string;  (** semicolon-joined ancestry, innermost last *)
  cid : string option;  (** correlation id, from {!Ctx} *)
  trace_id : string option;  (** distributed trace id, from {!Ctx.current_trace} *)
  seq : int;  (** process-local span id; {!span_hex} is the wire/export form *)
  parent : parent;
  ts_us : float;  (** start, microseconds since the collector was created *)
  dur_us : float;
  tid : int;  (** (domain id shl 16) lor thread id *)
  ok : bool;  (** false when the spanned thunk raised *)
  args : (string * Fields.t) list;
}

val create : ?capacity:int -> unit -> t
(** A collector holding up to [capacity] completed spans (default 65536);
    past that, the oldest spans are overwritten and {!dropped} counts
    them.
    @raise Invalid_argument when [capacity < 1]. *)

val install : t -> unit
(** Makes [t] the process-wide sink; replaces any previous one. *)

val uninstall : unit -> unit
val installed : unit -> t option

val enabled : unit -> bool
(** True iff a collector is installed — the fast-path check. *)

val with_span : ?cat:string -> ?args:(string * Fields.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a completed span around it
    when a collector is installed. Exceptions are re-raised after the
    span is recorded with [ok = false]. *)

val instant : ?cat:string -> ?args:(string * Fields.t) list -> string -> unit
(** A zero-duration marker event (cache hit, eviction, shed, ...). *)

val spans : t -> span list
(** Retained spans, oldest first. *)

val dropped : t -> int
(** Spans overwritten because the ring was full. *)

val clear : t -> unit

(** {1 Trace identity and propagation} *)

val new_trace_id : unit -> string
(** A fresh 32-hex-character trace id, unique across processes — minted
    once at the client edge of a request. *)

val span_hex : int -> string
(** The 16-hex-character wire/export form of a span's [seq]: pid-prefixed
    so ids stay unique across a merged multi-process trace. *)

val propagation_context : unit -> Ctx.trace option
(** The context to put on an {e outgoing} hop: the installed trace id
    with [parent_span] pointing at the innermost open span on the
    calling thread (falling back to the inherited remote parent). [None]
    when no trace context is installed — nothing is propagated. *)

val registry_samples : unit -> Registry.sample list
(** The installed collector's ring-buffer drop counter as a
    [nbti_trace_dropped_spans_total] registry family (empty when no
    collector is installed). *)

(** {1 Export} *)

val to_chrome : ?process_name:string -> t -> Json.t
(** The Chrome [trace_event] JSON object: [{"traceEvents":[...]}] with
    one phase-["X"] (complete) event per span — [ts]/[dur] in
    microseconds, [pid]/[tid], and the span's path, correlation id,
    trace linkage ([trace_id]/[span_id]/[parent_span], when recorded
    under a trace context) and attributes under [args]. A top-level
    [t0_us] records the absolute origin of the relative timestamps so a
    multi-process merge can align timelines, and [droppedSpans] counts
    {!dropped}; [process_name] adds a phase-["M"] metadata event naming
    this process. Loadable in [chrome://tracing] and Perfetto. *)

val write_chrome_json : ?process_name:string -> t -> path:string -> unit
(** {!to_chrome} printed by {!Json.to_string}, one line plus a newline. *)

val flame_summary : t -> string
(** Plain-text flame view: one line per distinct span path with call
    count, total and self time (total minus direct children), sorted by
    path so children print under their parent. *)

val flame_of_paths : (string * float) list -> dropped:int -> string
(** {!flame_summary} over raw [(path, dur_us)] pairs — used by the CLI
    to summarize a Chrome trace JSON file read back from disk. *)
