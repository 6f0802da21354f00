(* Resilient protocol client: one endpoint, a lazily (re)established
   connection, and a retry loop shared by the CLI `request` command and
   the fleet router's backend connector. *)

type t = {
  endpoint : Netline.endpoint;
  mutable read_timeout_s : float option;
  on_connect : unit -> unit;
  mutable conn : (in_channel * out_channel * Unix.file_descr) option;
}

let create ?read_timeout_s ?(on_connect = ignore) endpoint =
  { endpoint; read_timeout_s; on_connect; conn = None }

let endpoint t = t.endpoint
let connected t = t.conn <> None

let close t =
  match t.conn with
  | Some (_, _, fd) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.conn <- None
  | None -> ()

let set_read_timeout t s =
  if s <> t.read_timeout_s then begin
    t.read_timeout_s <- s;
    match t.conn with
    | Some (_, _, fd) -> (
      (* SO_RCVTIMEO 0 means no timeout *)
      try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Option.value s ~default:0.0)
      with Unix.Unix_error _ -> close t)
    | None -> ()
  end

(* The descriptor is closed on a failed connect: a refused or missing
   endpoint must cost nothing but the attempt, no matter how many
   retries a rolling restart makes the caller burn. *)
let connect t =
  let domain, addr = Netline.sockaddr_of_endpoint t.endpoint in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd addr;
    match t.read_timeout_s with
    | Some s -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
    | None -> ()
  with
  | () ->
    t.on_connect ();
    (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd, fd)
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let get_conn t =
  match t.conn with
  | Some c -> c
  | None ->
    let c = connect t in
    t.conn <- Some c;
    c

type attempt =
  | Done of string
  | Retryable of { response : string option; reason : string; retry_after_ms : int option }

type retryable = { response : string option; reason : string; retry_after_ms : int option }

(* One round trip: [Ok] carries a response line and its parse (success
   or a non-retryable error — the caller inspects it); [Error] means the
   failure reflects server state, not the request. Connection refusal
   (ECONNREFUSED, or ENOENT on a not-yet-bound Unix socket) is
   classified exactly like an [overloaded] response: a backend mid-
   restart is a transient condition, so rolling restarts stay invisible
   to callers that opted into retries. A connection kept from an earlier
   round trip that fails before any answer byte (the server closed it
   while it sat idle) is replaced by a fresh one at once, without
   counting as a retry; a read timeout is not, since the server is alive
   but slow. *)
let rec exchange t line =
  let transient ?response reason retry_after_ms = Error { response; reason; retry_after_ms } in
  let reused = connected t in
  let lost reason =
    close t;
    if reused then exchange t line else transient reason None
  in
  match get_conn t with
  | exception Unix.Unix_error (err, fn, arg) ->
    transient (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err)) None
  | ic, oc, _ -> begin
    match
      output_string oc line;
      output_char oc '\n';
      flush oc;
      input_line ic
    with
    | response -> begin
      match Json.of_string response with
      | json -> begin
        match Protocol.response_result json with
        | Ok _ -> Ok (response, json)
        | Error (code, _) when Protocol.retryable_code_string code ->
          transient ~response ("server " ^ code) (Protocol.error_detail_int json "retry_after_ms")
        | Error _ -> Ok (response, json)
        | exception Json.Type_error _ -> Ok (response, json)
      end
      | exception Json.Parse_error _ ->
        close t;
        transient "truncated or unparseable response" None
    end
    | exception Sys_blocked_io ->
      close t;
      transient "read timed out" None
    | exception End_of_file -> lost "server closed the connection"
    | exception Sys_error m -> lost m
    | exception Unix.Unix_error (err, _, _) -> lost (Unix.error_message err)
  end

let attempt t line =
  match exchange t line with
  | Ok (response, _) -> Done response
  | Error { response; reason; retry_after_ms } -> Retryable { response; reason; retry_after_ms }

type failure = { attempts : int; reason : string; last_response : string option }

(* Outgoing requests inherit the calling thread's distributed-trace
   context: when one is installed, the request object's "trace" member
   is (re)stamped from Obs.Trace.propagation_context, so the receiving
   process parents its spans onto the span this call is made under.
   Costs nothing when no trace context is installed; lines that do not
   parse as objects pass through untouched. *)
let stamp_trace line =
  match Obs.Trace.propagation_context () with
  | None -> line
  | Some tr -> begin
    match Json.of_string line with
    | Json.Assoc kvs ->
      let trace_json =
        Json.Assoc
          (("trace_id", Json.String tr.Obs.Ctx.trace_id)
          ::
          (match tr.Obs.Ctx.parent_span with
          | None -> []
          | Some p -> [ ("parent_span", Json.String p) ]))
      in
      Json.to_string (Json.Assoc (List.remove_assoc "trace" kvs @ [ ("trace", trace_json) ]))
    | _ -> line
    | exception Json.Parse_error _ -> line
  end

let call_parsed t ?(policy = Retry.default_policy) ?rng
    ?(on_retry = fun ~attempt:_ ~reason:_ ~sleep_ms:_ -> ()) line =
  let line = stamp_trace line in
  let rng =
    match rng with Some r -> r | None -> Physics.Rng.split (Physics.Rng.create ~seed:0)
  in
  let rec go attempt_no =
    match exchange t line with
    | Ok answer -> Ok answer
    | Error { response; reason; retry_after_ms } ->
      if attempt_no >= policy.Retry.retries then
        Error { attempts = attempt_no + 1; reason; last_response = response }
      else begin
        let sleep_ms = Retry.backoff_ms policy ~attempt:attempt_no ?retry_after_ms ~rng () in
        on_retry ~attempt:attempt_no ~reason ~sleep_ms;
        if sleep_ms > 0 then Unix.sleepf (float_of_int sleep_ms /. 1000.0);
        go (attempt_no + 1)
      end
  in
  go 0

let call t ?policy ?rng ?on_retry line = Result.map fst (call_parsed t ?policy ?rng ?on_retry line)
