(** Typed wire protocol of the aging-analysis service.

    Transport is newline-delimited JSON: one request object per line in,
    one response object per line out. Every request carries the protocol
    version under ["v"], an optional correlation ["id"] that is echoed
    in the response, and an optional ["timeout_ms"] compute budget.
    The operations (see {!ops} for the authoritative table) mirror the
    platform's entry points ([analyze], [ivc_search], [sleep_sizing],
    plus [batch] over them), the long-running [calibrate] inference
    workload, and three introspective ops ([health], [stats], and
    [metrics], which returns a Prometheus text-exposition snapshot).

    Request shapes: every member of an [analyze], [ivc_search] or
    [sleep_sizing] job, of its ["config"] and of a [calibrate] request is
    an entry of {!Request_fields} (name, default, domain, doc string;
    README's field table is rendered from {!request_fields}). A job is
    [{"v":1, "op":..., "circuit":"c432" | {"bench":"INPUT(a)\n..."},
    ...members}], a [batch] is [{"v":1, "op":"batch", "jobs":[job, ...]}]
    (each job with its own ["op"]), and a [calibrate] request carries its
    measurements inline as ["measurements"] (an array of
    [{"time_s","temp_k","vdd_v","dvth_v"}] objects) or ["csv"]. The
    other ops take no members ([health], [stats], [metrics],
    [cluster_metrics]) or those on their {!request} constructor.

    Any request may additionally carry a distributed-trace context,
    ["trace":{"trace_id":"<hex>","parent_span"?:"<hex>"}].

    Responses are [{"v":1,"id":...,"ok":true,"result":{...}}] or
    [{"v":1,"id":...,"ok":false,"error":{"code":"...","message":"...",
    ...details}}] where details may include ["retry_after_ms"] (on
    [overloaded]) or ["line"] (on positioned [invalid_request]). *)

val version : int

(** {1 Requests} *)

type circuit_spec =
  | Named of string  (** generator / benchmark name, e.g. ["c432"] *)
  | Bench of string  (** inline [.bench] netlist text *)

type standby_spec = Request_fields.standby_spec = Worst | Best | Vector of bool array

val standby_state :
  Circuit.Netlist.t -> standby_spec -> (Aging.Circuit_aging.standby_state, string) result
(** [Error] when a vector does not have one bit per primary input. *)

type flow_spec = {
  ras : float * float;
  t_active : float;
  t_standby : float;
  years : float;
  input_sp : float;
  sp_method : Flow.Platform.sp_method;
  leakage_temp : float;
  pbti_scale : float option;
}

val default_flow_spec : flow_spec
(** The paper's setting: every {!Request_fields} default (the same as
    [nbti_tool analyze]'s). *)

val platform_config : flow_spec -> Flow.Platform.config

type job =
  | Analyze of { circuit : circuit_spec; flow : flow_spec; standby : standby_spec }
  | Ivc_search of {
      circuit : circuit_spec;
      flow : flow_spec;
      seed : int;
      pool : int;
      tolerance : float option;
    }
  | Sleep_sizing of {
      circuit : circuit_spec;
      flow : flow_spec;
      style : Sleep.St_insertion.style;
      beta : float;
      vth_st : float option;
      nbti_aware : bool;
    }

val job_circuit : job -> circuit_spec
(** The circuit a job runs on. *)

val circuit_name : circuit_spec -> string
(** The name of the netlist a spec resolves to, which payloads echo as
    [circuit] and [stats.name]: the ISCAS85 name itself, or ["inline"]
    for uploaded text. *)

type calibrate_spec = {
  dataset : Calibrate.Dataset.t;
  config : Calibrate.Engine.config;
}
(** The [calibrate] wire op: measurements arrive inline (a
    ["measurements"] array of point objects or a ["csv"] string in the
    {!Calibrate.Dataset} column order), the sampler knobs as
    {!Request_fields} members. The prior is the server's
    {!Calibrate.Model.default_prior}. *)

val calibrate_engine_config :
  [ `Mh | `Importance ] -> int -> int -> int -> int -> int -> int -> float ->
  (float * float * float) array -> Calibrate.Engine.config
(** The engine config of a [calibrate] request's members, in the order
    {!request_fields} lists them. *)

val request_fields : (string * Request_fields.any list) list
(** [(op, members)] of each table-driven op: README's field table. *)

type request =
  | Single of job
  | Batch of job list
  | Calibrate of calibrate_spec
  | Health
  | Stats
  | Metrics
  | Cache_export of { max_entries : int }
      (** snapshot of the [max_entries] most-recently-used result-cache
          entries, [{"v":1,"op":"cache_export","max_entries"?:64}] —
          the fleet's warm-handoff source *)
  | Cache_import of { entries : (string * Json.t) list }
      (** seed the result cache with [(key, payload)] pairs,
          [{"v":1,"op":"cache_import","entries":[{"key":...,
          "payload":{...}}, ...]}] — the warm-handoff sink; payloads are
          trusted opaquely because keys are content-addressed *)
  | Trace_export of { clear : bool }
      (** drain the process's installed span ring as a Chrome trace
          object, [{"v":1,"op":"trace_export","clear"?:false}] — the
          fleet's trace-collection source; [clear] empties the ring
          after the snapshot *)
  | Cluster_metrics
      (** router-only: Prometheus text federating the router's own
          registry with every backend's last scrape (per-backend
          [backend="..."] labels) plus fleet aggregates *)

val ops : (string * string) list
(** The authoritative wire-operation table, [(name, description)]: the
    decoder's unknown-op [invalid_request] details and the [stats]
    endpoint's ["ops"] section are both rendered from it, so a new op
    registered here appears in both automatically. *)

val supported_ops : string list
(** [List.map fst ops]. *)

val op_name : request -> string
(** The request's op as {!ops} spells it; requests are metered, traced,
    scored and access-logged under this name. *)

type envelope = {
  id : string option;
  timeout_ms : int option;
  trace : Obs.Ctx.trace option;
  request : request;
}
(** [timeout_ms] is the request's compute budget: the server converts it
    into a {!Parallel.Budget.t} and the flow abandons work past the
    deadline with a [deadline_exceeded] error. [None] means the server's
    default (usually unlimited).

    [trace] is the optional distributed-trace context,
    [{"trace":{"trace_id":"<hex>","parent_span"?:"<hex>"}}]: the
    receiving process installs it via {!Obs.Ctx.with_trace} so its spans
    join the sender's trace, and {!Client} stamps it onto outgoing
    requests from the calling thread's {!Obs.Trace.propagation_context}. *)

type error_code =
  | Parse_error  (** the line is not valid JSON *)
  | Unsupported_version  (** missing or unknown ["v"] *)
  | Bad_request  (** wrong JSON type, missing member, cross-field limit, unknown circuit *)
  | Invalid_request
      (** a value outside its field's domain, an unknown member or op, an
          operational limit (line length, batch size, gate count) or a
          malformed netlist; the error object may carry ["field"] (a
          dotted path such as ["config.years"]), ["min"]/["max"] or
          position details such as ["line"] *)
  | Deadline_exceeded  (** the request's [timeout_ms] budget ran out *)
  | Overloaded
      (** admission control shed the request; the error object carries a
          ["retry_after_ms"] hint *)
  | Fleet_degraded
      (** the fleet router found no live backend owning the request's
          hash range within its failover bound; the error object carries
          a ["retry_after_ms"] hint and ["backends_tried"] *)
  | Internal_error

val error_code_string : error_code -> string
(** The wire spelling: ["parse_error"], ["bad_request"], ... *)

val retryable_code_string : string -> bool
(** Whether an identical retry may succeed, by the error code's wire
    spelling (the failure reflects server state, not the request): true
    only for [Overloaded] and [Fleet_degraded]. Every operation is
    idempotent, so retrying is always {e safe}; this classifies
    usefulness. *)

type decode_error = {
  code : error_code;
  message : string;
  details : (string * Json.t) list;
      (** extra error-object fields, e.g. ["supported_ops"] on an
          unknown op or ["line"] on a positioned CSV error *)
}

val envelope_of_json : Json.t -> (envelope, decode_error) result

val json_of_envelope : envelope -> Json.t
(** Client-side encoder: [envelope_of_json (json_of_envelope e) = Ok e].
    A job or calibration member equal to its default is not written. *)

(** {1 Responses} *)

val ok_response : id:string option -> Json.t -> Json.t

val cached_result : string -> hit:bool -> Json.t
(** [cached_result payload ~hit] is the result a service answers with
    for a result payload it stored as {!Json.to_string} printed it:
    [payload] with ["cached":hit] appended, as {!Json.Raw} bytes equal to
    the print of the payload's tree with that member appended. A payload
    that is not an object is answered as it is. *)

val forwarded_result : line:string -> Json.t -> Json.t
(** [forwarded_result ~line json], where [json] is [line] parsed and is
    an ok response, is its result. When [line] is an id-less ok response
    with [ok_response ~id:None]'s members in its order and without
    whitespace around them, that is the result's bytes in [line], as
    {!Json.Raw}: a router forwards them without printing them again, so
    [ok_response ~id (forwarded_result ~line json)] prints as
    [ok_response ~id] of the parsed result whenever the sender printed
    [line] with {!Json.to_string}, and parses as it otherwise. Any other
    layout yields the parsed result. *)

val error_response :
  id:string option -> ?details:(string * Json.t) list -> error_code -> string -> Json.t
(** [details] are extra fields merged into the error object, e.g.
    [("retry_after_ms", Int 250)] on [Overloaded] or [("line", Int 3)]
    on a positioned [Invalid_request]. *)

val error_detail_int : Json.t -> string -> int option
(** [error_detail_int response key] reads an integer detail (such as
    ["retry_after_ms"]) out of a response envelope's error object;
    [None] when absent or not an error envelope. *)

val response_result : Json.t -> (Json.t, string * string) result
(** Splits a decoded response envelope into [Ok result] or
    [Error (code, message)].
    @raise Json.Type_error on envelopes not produced by this protocol. *)

val json_of_analysis : Flow.Platform.analysis -> Json.t
val analysis_of_json : Json.t -> Flow.Platform.analysis
(** Exact inverse of {!json_of_analysis}: floats round-trip bit-exactly,
    so a served analysis equals the direct platform result. *)

val json_of_ivc : Ivc.Co_opt.result -> Ivc.Mlv.search_stats -> Json.t
val json_of_st : Sleep.St_insertion.result -> Json.t

val json_of_posterior : dataset:Calibrate.Dataset.t -> Calibrate.Posterior.t -> Json.t
(** The [calibrate] result payload: per-parameter posterior summaries
    (mean, sd, credible interval, R̂, ESS), per-chain acceptance rates,
    posterior-predictive degradation intervals, the dataset's size and
    digest, and the posterior-mean R–D parameter bridge under
    ["rd_params"] (feedable to [analyze]-style configs). *)

(** {1 Cache keys} *)

val job_cache_key : job -> circuit_digest:string -> string
(** Canonical content-addressed key: the job's kind and every
    result-relevant parameter (config fingerprint included), with the
    circuit replaced by its {!Circuit.Netlist.digest} and its
    {!circuit_name}. Jobs with equal keys compute identical results.
    The digest ignores names, so structurally equal circuits (c499 and
    c1355, or an upload of c17 and c17 itself) differ only by name. *)

val calibrate_cache_key : calibrate_spec -> string
(** [calibrate|<dataset digest>|<engine config fingerprint>] — equal keys
    compute bitwise-identical posteriors (the engine is deterministic in
    its seed at any domain count). *)
