type ('state, 'meta) t = {
  role : ('state, 'meta) role;
  state : 'state;
  metrics : Metrics.t;
  registry : Obs.Registry.t;
  slo : Obs.Slo.t option;
  drain_timeout_ms : int;
  max_line_bytes : int;
  (* correlation ids for requests that carry no "id" field *)
  seq : int Atomic.t;
  mutable access_log : out_channel option;
  access_lock : Mutex.t;
  (* atomics, so stop and drain stay safe from signal handlers *)
  running : bool Atomic.t;
  draining : bool Atomic.t;
  (* connections accepted and not yet closed by their threads *)
  mutable conns : conn list;
  mutable at_stop : (unit -> unit) list;
  lock : Mutex.t;
}

(* An accepted connection. [busy]: it holds a request, read and not yet
   answered. [shut]: drain or shutdown has shut it down, so it answers
   nothing more. Both are guarded by the front-end's lock. *)
and conn = { fd : Unix.file_descr; mutable busy : bool; mutable shut : bool }

and ('state, 'meta) role = {
  cid_prefix : string;
  span_cat : string;
  process_name : string option;
  originates_traces : bool;
  faults : 'state -> Faults.t;
  dispatch : ('state, 'meta) t -> Protocol.envelope -> Json.t * 'meta;
  no_meta : 'meta;
  access_fields : 'meta -> (string * Json.t) list;
  tick : ('state -> unit) option;
}

let default_drain_timeout_ms = 5000

let create role ~metrics ~registry ?slo ?(drain_timeout_ms = default_drain_timeout_ms)
    ~max_line_bytes state =
  {
    role;
    state;
    metrics;
    registry;
    slo;
    drain_timeout_ms;
    max_line_bytes;
    seq = Atomic.make 0;
    access_log = None;
    access_lock = Mutex.create ();
    running = Atomic.make false;
    draining = Atomic.make false;
    conns = [];
    at_stop = [];
    lock = Mutex.create ();
  }

let state fe = fe.state

let locked fe f =
  Mutex.lock fe.lock;
  let v = f () in
  Mutex.unlock fe.lock;
  v

let draining fe = Atomic.get fe.draining
let connections fe = locked fe (fun () -> List.length fe.conns)

(* --- Errors --- *)

exception Rejected of Protocol.decode_error
exception Overloaded of { max_pending : int; retry_after_ms : int }

let error_of_exn fe ~timeout_ms exn =
  let error ?(details = []) code message = { Protocol.code; message; details } in
  match exn with
  | Rejected e -> e
  | Overloaded { max_pending; retry_after_ms } ->
    error Protocol.Overloaded
      ~details:[ ("retry_after_ms", Json.Int retry_after_ms) ]
      (Printf.sprintf "job queue full (max %d pending)" max_pending)
  | Parallel.Budget.Deadline_exceeded ->
    Metrics.incr_counter fe.metrics "deadline_exceeded";
    error Protocol.Deadline_exceeded
      (match timeout_ms with
      | Some ms -> Printf.sprintf "request budget of %d ms exhausted" ms
      | None -> "request budget exhausted")
  | Faults.Injected site -> error Protocol.Internal_error ("injected fault at " ^ site)
  | Json.Type_error m -> error Protocol.Bad_request m
  | Invalid_argument m | Failure m -> error Protocol.Internal_error m
  | exn -> error Protocol.Internal_error (Printexc.to_string exn)

let batch_entry fe ~timeout_ms run job =
  match run job with
  | payload -> payload
  | exception exn ->
    let { Protocol.code; message; details } = error_of_exn fe ~timeout_ms exn in
    Json.Assoc
      ([
         ("kind", Json.String "error");
         ("code", Json.String (Protocol.error_code_string code));
         ("message", Json.String message);
       ]
      @ details)

(* --- The per-request envelope --- *)

let set_access_log fe oc =
  Mutex.lock fe.access_lock;
  fe.access_log <- Some oc;
  Mutex.unlock fe.access_lock

(* One JSONL record per handled request, written under a mutex so
   concurrent connection threads never interleave records. The role's
   fields are only built when a log is armed. *)
let access_log_write fe ~cid ~endpoint ~ok ~elapsed_s ~error meta =
  Mutex.lock fe.access_lock;
  (match fe.access_log with
  | None -> ()
  | Some oc ->
    let fields =
      [
        ("ts", Json.Float (Unix.gettimeofday ()));
        ("cid", Json.String cid);
        ("endpoint", Json.String endpoint);
        ("ok", Json.Bool ok);
        ("elapsed_s", Json.Float elapsed_s);
      ]
      @ fe.role.access_fields meta
      @ match error with None -> [] | Some code -> [ ("error", Json.String code) ]
    in
    (* A failing access-log disk never fails the request being logged. *)
    (try
       output_string oc (Json.to_string (Json.Assoc fields));
       output_char oc '\n';
       flush oc
     with Sys_error _ -> ()));
  Mutex.unlock fe.access_lock

(* Best-effort id extraction so even malformed requests get their
   correlation id echoed back. *)
let request_id = function
  | Json.Assoc kvs -> ( match List.assoc_opt "id" kvs with Some (Json.String s) -> Some s | _ -> None)
  | _ -> None

let fresh_cid fe = function
  | Some id -> id
  | None -> fe.role.cid_prefix ^ string_of_int (Atomic.fetch_and_add fe.seq 1)

let response_ok response =
  match Json.member_opt "ok" response with Some (Json.Bool b) -> b | _ -> false

let response_error_code response =
  match Json.member_opt "error" response with
  | Some e -> ( match Json.member_opt "code" e with Some (Json.String c) -> Some c | _ -> None)
  | None -> None

(* The envelope's trace context is adopted when the sender gave one, so
   the "request" span (a root on this thread) parents onto the sender's
   span and every span below inherits the trace id. A role at the
   fleet's client edge starts a trace for untraced requests instead. *)
let with_trace_opt fe trace f =
  match trace with
  | Some tr -> Obs.Ctx.with_trace tr f
  | None when fe.role.originates_traces && Obs.Trace.enabled () ->
    Obs.Ctx.with_trace { Obs.Ctx.trace_id = Obs.Trace.new_trace_id (); parent_span = None } f
  | None -> f ()

(* Wraps one request in its observability envelope: the correlation id
   is installed on the handling thread so every span, log record and
   pool chunk below carries it, the dispatch is a "request" span, and
   completion (one clock pair, and the response's own [ok]) is counted
   in the endpoint metrics, scored, and goes to the structured log and
   the access log. All but the count collapse to a couple of branches
   when no collector / SLO / log level / access log is armed. *)
let observed fe ~cid ~trace ~endpoint run =
  Obs.Ctx.with_id cid @@ fun () ->
  with_trace_opt fe trace @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let response, meta =
    Obs.Trace.with_span ~cat:fe.role.span_cat
      ~args:[ ("endpoint", Obs.Fields.Str endpoint) ]
      "request" run
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let ok = response_ok response in
  let error = response_error_code response in
  Metrics.record fe.metrics ~endpoint ~ok ~elapsed_s;
  (match fe.slo with
  | None -> ()
  | Some slo -> Obs.Slo.observe slo ~op:endpoint ~ok ~elapsed_s);
  let level = if ok then Obs.Log.Info else Obs.Log.Warn in
  if Obs.Log.would_log level then
    Obs.Log.log level
      ~fields:
        ([
           ("endpoint", Obs.Fields.Str endpoint);
           ("ok", Obs.Fields.Bool ok);
           ("elapsed_s", Obs.Fields.Float elapsed_s);
         ]
        @ match error with None -> [] | Some c -> [ ("error", Obs.Fields.Str c) ])
      "request handled";
  access_log_write fe ~cid ~endpoint ~ok ~elapsed_s ~error meta;
  response

(* The response may hold already-rendered bytes ([Json.Raw]), which
   [handle_line] prints as they are. *)
let respond fe request_json =
  match Protocol.envelope_of_json request_json with
  | Error { Protocol.code; message; details } ->
    if code = Protocol.Invalid_request then Metrics.incr_counter fe.metrics "invalid_requests";
    let id = request_id request_json in
    observed fe ~cid:(fresh_cid fe id) ~trace:None ~endpoint:"invalid" (fun () ->
        (Protocol.error_response ~id ~details code message, fe.role.no_meta))
  | Ok ({ Protocol.id; timeout_ms; trace; request } as envelope) ->
    let endpoint = Protocol.op_name request in
    observed fe ~cid:(fresh_cid fe id) ~trace ~endpoint @@ fun () ->
    try fe.role.dispatch fe envelope
    with exn ->
      let { Protocol.code; message; details } = error_of_exn fe ~timeout_ms exn in
      if code = Protocol.Invalid_request then Metrics.incr_counter fe.metrics "invalid_requests";
      (Protocol.error_response ~id ~details code message, fe.role.no_meta)

let handle_line fe line =
  let response =
    match Json.of_string line with
    | exception Json.Parse_error m -> Protocol.error_response ~id:None Protocol.Parse_error m
    | json -> respond fe json
  in
  Json.to_string response

(* --- The answers both roles give locally --- *)

let metrics_result fe =
  Json.Assoc
    [
      ("kind", Json.String "metrics");
      ("content_type", Json.String "text/plain; version=0.0.4");
      ("prometheus", Json.String (Obs.Registry.to_prometheus fe.registry));
    ]

(* Trace drain bypasses admission like the other introspective ops: it
   moves already-recorded spans, never computes. *)
let trace_export fe ~id ~clear =
  match Obs.Trace.installed () with
  | None ->
    Protocol.error_response ~id Protocol.Invalid_request
      "tracing is not enabled on this process (no span collector installed)"
  | Some c ->
    Metrics.incr_counter fe.metrics "trace_exports";
    let span_count = List.length (Obs.Trace.spans c) in
    let dropped = Obs.Trace.dropped c in
    let trace_json = Obs.Trace.to_chrome ?process_name:fe.role.process_name c in
    if clear then Obs.Trace.clear c;
    Protocol.ok_response ~id
      (Json.Assoc
         [
           ("kind", Json.String "trace_export");
           ("spans", Json.Int span_count);
           ("dropped", Json.Int dropped);
           ("trace", trace_json);
         ])

(* --- Socket serving --- *)

(* Only flips flags: the accept loop polls them (select with a short
   timeout), because on Linux closing a listening fd from another thread
   does not wake a blocked accept(2). Safe from signal handlers. *)
let stop fe = Atomic.set fe.running false

let drain fe =
  Atomic.set fe.draining true;
  Atomic.set fe.running false

let at_stop fe f = locked fe (fun () -> fe.at_stop <- fe.at_stop @ [ f ])

let install_signal_handlers fe =
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop fe));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain fe))

(* A connection takes a request it has read unless it was shut down
   meanwhile; after answering, it reads the next one unless the service
   is draining. So once draining, each connection answers the request it
   holds and closes. *)
let take fe c =
  locked fe (fun () ->
      if not c.shut then c.busy <- true;
      not c.shut)

let release fe c =
  locked fe (fun () ->
      c.busy <- false;
      not (c.shut || Atomic.get fe.draining))

(* Wakes the threads of the connections that [select] picks, blocked in
   a read or not, by shutting their sockets down; each thread then
   closes its own descriptor (a descriptor closed here could be reused
   under a thread still reading it). [SHUTDOWN_RECEIVE] still lets a
   connection write the answer it holds. *)
let shut_down fe ~select how =
  locked fe (fun () ->
      List.iter
        (fun c ->
          if select c then begin
            c.shut <- true;
            try Unix.shutdown c.fd how with Unix.Unix_error _ -> ()
          end)
        fe.conns)

exception Drop_connection

let connection_loop fe c =
  let fd = c.fd in
  let reader = Netline.reader (Unix.in_channel_of_descr fd) in
  let oc = Unix.out_channel_of_descr fd in
  let write_response line =
    if Faults.fire (fe.role.faults fe.state) ~site:"write" then begin
      Metrics.incr_counter fe.metrics "truncated_writes";
      output_string oc (String.sub line 0 (String.length line / 2));
      flush oc;
      raise Drop_connection
    end;
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match Netline.read_request_line reader ~max_bytes:fe.max_line_bytes with
    | Netline.Eof -> ()
    | Netline.Oversized ->
      if take fe c then begin
        Metrics.incr_counter fe.metrics "invalid_requests";
        write_response
          (Json.to_string
             (Protocol.error_response ~id:None
                ~details:[ ("max_line_bytes", Json.Int fe.max_line_bytes) ]
                Protocol.Invalid_request
                (Printf.sprintf "request line exceeds %d bytes" fe.max_line_bytes)));
        if release fe c then loop ()
      end
    | Netline.Line line ->
      if take fe c then begin
        let line =
          (* tolerate CRLF clients *)
          let n = String.length line in
          if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
        in
        if String.trim line <> "" then write_response (handle_line fe line);
        if release fe c then loop ()
      end
  in
  (* A peer that vanishes mid-write (EPIPE / ECONNRESET — surfaced as
     Sys_error through the channel layer) or mid-read costs exactly this
     connection, never the process. The connection leaves the set before
     its descriptor closes, so [shut_down] never touches a closed one. *)
  Fun.protect
    ~finally:(fun () ->
      locked fe (fun () -> fe.conns <- List.filter (fun c' -> c' != c) fe.conns);
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try loop () with
      | Drop_connection -> ()
      | Sys_error _ | Unix.Unix_error _ -> Metrics.incr_counter fe.metrics "disconnects")

(* The role's background work runs until [serve] returns, drain wait
   included: a draining router keeps probing while the forwards in
   flight on its open connections finish. *)
let start_ticker fe =
  match fe.role.tick with
  | None -> ignore
  | Some tick ->
    let serving = Atomic.make true in
    let thread =
      Thread.create
        (fun () ->
          while Atomic.get serving do
            tick fe.state;
            Unix.sleepf 0.05
          done)
        ()
    in
    fun () ->
      Atomic.set serving false;
      Thread.join thread

let serve fe endpoint ?(on_ready = ignore) () =
  (* A client closing its socket mid-response must surface as a write
     error on that connection, not kill the process with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = match endpoint with Netline.Unix_socket p -> Some p | Netline.Tcp _ -> None in
  Option.iter (fun p -> if Sys.file_exists p then try Unix.unlink p with Unix.Unix_error _ -> ()) path;
  let domain, addr = Netline.sockaddr_of_endpoint endpoint in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd 64;
  Atomic.set fe.running true;
  let stop_ticker = start_ticker fe in
  let rec accept_loop () =
    if Atomic.get fe.running then begin
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ -> begin
        match Unix.accept fd with
        | client, _ ->
          (* registered here, before its thread runs, so a shutdown
             sweep sees every accepted connection *)
          let c = { fd = client; busy = false; shut = false } in
          locked fe (fun () -> fe.conns <- c :: fe.conns);
          ignore (Thread.create (connection_loop fe) c);
          accept_loop ()
        | exception
            Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
          ->
          accept_loop ()
      end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ()) path;
      Atomic.set fe.running false;
      (* Drain: the listening socket is closed, so no new connection can
         arrive. Idle connections close at once; the others answer the
         request they hold and close. Wait, bounded, for those. *)
      if Atomic.get fe.draining then begin
        shut_down fe ~select:(fun c -> not c.busy) Unix.SHUTDOWN_RECEIVE;
        let deadline = Unix.gettimeofday () +. (float_of_int fe.drain_timeout_ms /. 1000.0) in
        while connections fe > 0 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done
      end;
      (* Whatever is still open is shut down, so no connection outlives
         [serve]: its peer reads EOF. *)
      shut_down fe ~select:(fun _ -> true) Unix.SHUTDOWN_ALL;
      stop_ticker ();
      List.iter (fun f -> f ()) (locked fe (fun () -> fe.at_stop)))
    (fun () ->
      on_ready ();
      accept_loop ())
