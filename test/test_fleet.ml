(* Tests for the fleet layer: consistent-hash ring stability under
   membership change, singleflight coalescing, the backend state
   machine driven through the router, failover, fleet_degraded, warm
   cache handoff, graceful drain, and the retrying client against a
   refused endpoint. Backends are real Server.Service instances on
   temp Unix sockets; the router is exercised through handle_line. *)

let json_str = Server.Json.to_string

(* --- helpers: in-process backends on temp sockets --- *)

let fresh_socket_path () =
  let path = Filename.temp_file "nbti_fleet" ".sock" in
  Sys.remove path;
  path

let start_service_at t path =
  let ready = Mutex.create () in
  let cond = Condition.create () in
  let is_ready = ref false in
  let on_ready () =
    Mutex.lock ready;
    is_ready := true;
    Condition.signal cond;
    Mutex.unlock ready
  in
  let thread =
    Thread.create (fun () -> Server.Frontend.serve t (Server.Netline.Unix_socket path) ~on_ready ()) ()
  in
  Mutex.lock ready;
  while not !is_ready do
    Condition.wait cond ready
  done;
  Mutex.unlock ready;
  thread

type backend_handle = {
  mutable service : Server.Service.t;
  path : string;
  mutable thread : Thread.t;
}

let start_backend ?faults () =
  let service = Server.Service.create ?faults () in
  let path = fresh_socket_path () in
  { service; path; thread = start_service_at service path }

let stop_backend b =
  Server.Frontend.stop b.service;
  Thread.join b.thread

let restart_backend b =
  b.service <- Server.Service.create ();
  b.thread <- start_service_at b.service b.path

let endpoint_of b = Server.Netline.Unix_socket b.path
let name_of b = Server.Netline.endpoint_to_string (endpoint_of b)

(* --- helpers: requests and responses --- *)

let analyze_line ?(circuit = "c17") years =
  let open Server.Protocol in
  json_str
    (json_of_envelope
       {
         id = None;
         timeout_ms = None;
         trace = None;
         request =
           Single
             (Analyze
                {
                  circuit = Named circuit;
                  flow = { default_flow_spec with years };
                  standby = Worst;
                });
       })

let job_key_of line =
  match Server.Protocol.envelope_of_json (Server.Json.of_string line) with
  | Ok { Server.Protocol.request = Server.Protocol.Single job; _ } ->
    let digest = Circuit.Netlist.digest (Circuit.Generators.c17 ()) in
    Server.Protocol.job_cache_key job ~circuit_digest:digest
  | _ -> Alcotest.fail "not a single-job request"

let response_ok response =
  match Server.Json.member_opt "ok" (Server.Json.of_string response) with
  | Some (Server.Json.Bool b) -> b
  | _ -> false

let response_error_code response =
  Server.Json.(to_string_exn (member "code" (member "error" (of_string response))))

let result_member key response =
  Server.Json.(member key (member "result" (of_string response)))

(* Normalize the one field the router path legitimately changes: which
   cache answered. Everything else must be byte-identical. *)
let strip_cached response =
  match Server.Json.of_string response with
  | Server.Json.Assoc kvs ->
    json_str
      (Server.Json.Assoc
         (List.map
            (fun (k, v) ->
              match (k, v) with
              | "result", Server.Json.Assoc rs ->
                (k, Server.Json.Assoc (List.filter (fun (k', _) -> k' <> "cached") rs))
              | _ -> (k, v))
            kvs))
  | other -> json_str other

(* Find a [years] value whose analyze job lands on the given backend —
   socket paths are random per run, so the ownership split is too. *)
let years_owned_by ring name =
  let rec go y =
    if y > 64.0 then Alcotest.fail "no key landed on backend (improbable)"
    else
      let key = job_key_of (analyze_line y) in
      if Fleet.Ring.owner ring ~live:(fun _ -> true) key = Some name then y else go (y +. 1.0)
  in
  go 1.0

(* --- Ring --- *)

let prop_remove_one_backend_is_stable =
  QCheck.Test.make ~name:"removing one of N backends remaps only its own keys" ~count:30
    (QCheck.make QCheck.Gen.(pair (int_range 3 8) (int_bound 10_000)))
    (fun (n, salt) ->
      let names = List.init n (Printf.sprintf "unix:/tmp/fleet-%d.sock") in
      let keys = List.init 300 (Printf.sprintf "key-%d-%d" salt) in
      let removed = List.nth names (salt mod n) in
      let full = Fleet.Ring.create names in
      let reduced = Fleet.Ring.create (List.filter (fun m -> m <> removed) names) in
      let all_live _ = true in
      let moved = ref 0 in
      List.iter
        (fun k ->
          let before = Fleet.Ring.owner full ~live:all_live k in
          let after = Fleet.Ring.owner reduced ~live:all_live k in
          (* a key moves iff the removed backend owned it ... *)
          if before <> after && before <> Some removed then
            QCheck.Test.fail_reportf "key %s moved from %s" k (Option.get before);
          if before = Some removed then incr moved;
          (* ... and routing-time liveness filtering behaves exactly
             like rebuilding the ring without the dead backend *)
          if Fleet.Ring.owner full ~live:(fun m -> m <> removed) k <> after then
            QCheck.Test.fail_reportf "live-filter and rebuilt ring disagree on %s" k)
        keys;
      (* the removed backend owned ~1/N of the keys; allow generous
         vnode-variance slack *)
      float_of_int !moved /. 300.0 <= 2.5 /. float_of_int n)

let prop_add_one_backend_only_captures =
  QCheck.Test.make ~name:"adding a backend captures ~1/(N+1); nothing moves between old ones"
    ~count:30
    (QCheck.make QCheck.Gen.(pair (int_range 3 8) (int_bound 10_000)))
    (fun (n, salt) ->
      let names = List.init n (Printf.sprintf "unix:/tmp/fleet-%d.sock") in
      let added = "unix:/tmp/fleet-new.sock" in
      let keys = List.init 300 (Printf.sprintf "key-%d-%d" salt) in
      let before_ring = Fleet.Ring.create names in
      let after_ring = Fleet.Ring.create (names @ [ added ]) in
      let all_live _ = true in
      let captured = ref 0 in
      List.iter
        (fun k ->
          let before = Fleet.Ring.owner before_ring ~live:all_live k in
          let after = Fleet.Ring.owner after_ring ~live:all_live k in
          if before <> after then begin
            if after <> Some added then
              QCheck.Test.fail_reportf "key %s moved between old backends" k;
            incr captured
          end)
        keys;
      float_of_int !captured /. 300.0 <= 2.5 /. float_of_int (n + 1))

let test_ring_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true (raises (fun () -> Fleet.Ring.create []));
  Alcotest.(check bool) "duplicate" true (raises (fun () -> Fleet.Ring.create [ "a"; "a" ]));
  Alcotest.(check bool) "empty name" true (raises (fun () -> Fleet.Ring.create [ "" ]));
  Alcotest.(check bool) "vnodes < 1" true
    (raises (fun () -> Fleet.Ring.create ~vnodes:0 [ "a" ]));
  let ring = Fleet.Ring.create [ "a"; "b"; "c" ] in
  let owners = Fleet.Ring.owners ring "some-key" in
  Alcotest.(check int) "preference covers every backend" 3 (List.length owners);
  Alcotest.(check bool) "preference is a permutation" true
    (List.sort compare owners = [ "a"; "b"; "c" ]);
  Alcotest.(check (option string)) "no live backend" None
    (Fleet.Ring.owner ring ~live:(fun _ -> false) "some-key")

(* --- Singleflight --- *)

let test_singleflight_coalesces () =
  let sf = Fleet.Singleflight.create () in
  let computes = ref 0 in
  let f () =
    incr computes;
    Unix.sleepf 0.3;
    42
  in
  let results = Array.make 4 None in
  let threads =
    Array.init 4 (fun i ->
        Thread.create
          (fun () ->
            (* stagger so thread 0 leads and 1-3 arrive mid-flight *)
            if i > 0 then Unix.sleepf 0.05;
            results.(i) <- Some (Fleet.Singleflight.run sf "k" f))
          ())
  in
  Array.iter Thread.join threads;
  Alcotest.(check int) "computed once" 1 !computes;
  Alcotest.(check int) "three coalesced" 3 (Fleet.Singleflight.coalesced_total sf);
  Alcotest.(check int) "one flight" 1 (Fleet.Singleflight.flights_total sf);
  Array.iteri
    (fun i r ->
      match r with
      | Some (v, follower) ->
        Alcotest.(check int) "shared value" 42 v;
        Alcotest.(check bool) "leader vs follower" (i > 0) follower
      | None -> Alcotest.fail "thread produced no result")
    results;
  (* completion removes the key: the next call leads a fresh flight *)
  let v, follower = Fleet.Singleflight.run sf "k" f in
  Alcotest.(check int) "fresh flight recomputes" 2 !computes;
  Alcotest.(check bool) "fresh flight leads" false follower;
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check int) "two flights total" 2 (Fleet.Singleflight.flights_total sf)

exception Boom

let test_singleflight_shares_errors () =
  let sf = Fleet.Singleflight.create () in
  let f () =
    Unix.sleepf 0.2;
    raise Boom
  in
  let outcomes = Array.make 2 `Pending in
  let threads =
    Array.init 2 (fun i ->
        Thread.create
          (fun () ->
            if i > 0 then Unix.sleepf 0.05;
            outcomes.(i) <- (try ignore (Fleet.Singleflight.run sf "k" f); `Value
                             with Boom -> `Boom))
          ())
  in
  Array.iter Thread.join threads;
  Array.iter
    (fun o -> Alcotest.(check bool) "leader and follower both see the exception" true (o = `Boom))
    outcomes

(* --- Router: routing, failover, state machine, handoff --- *)

let counter router name = Server.Metrics.counter (Fleet.Router.metrics router) name

(* Pull every probe forward so a single pass is deterministic — the
   real probe thread spaces them out with capped-jitter backoff. *)
let force_probe router =
  List.iter
    (fun b -> Fleet.Backend.schedule_probe b ~at:0.0)
    (Fleet.Router.backend_list router);
  Fleet.Router.probe_due_backends router

let backend_state router name =
  match
    List.find_opt (fun b -> Fleet.Backend.name b = name) (Fleet.Router.backend_list router)
  with
  | Some b -> Fleet.Backend.state b
  | None -> Alcotest.fail ("unknown backend " ^ name)

let test_router_end_to_end () =
  let b0 = start_backend () in
  let b1 = start_backend () in
  let router = Fleet.Router.create [ endpoint_of b0; endpoint_of b1 ] in
  let ring = Fleet.Router.ring router in
  (* one request owned by each backend *)
  let line_a = analyze_line (years_owned_by ring (name_of b0)) in
  let line_b = analyze_line (years_owned_by ring (name_of b1)) in

  (* routed answers are byte-identical to a direct single-backend run
     (modulo the cached flag) *)
  let direct_service = Server.Service.create () in
  let direct = Server.Service.handle_line direct_service line_a in
  let routed = Fleet.Router.handle_line router line_a in
  Alcotest.(check bool) "routed ok" true (response_ok routed);
  Alcotest.(check string) "byte-identical to direct run" (strip_cached direct)
    (strip_cached routed);

  (* same key again: same owner, served from its cache *)
  let again = Fleet.Router.handle_line router line_a in
  Alcotest.(check bool) "repeat hits the owner's cache" true
    (result_member "cached" again = Server.Json.Bool true);

  (* warm b1 too *)
  Alcotest.(check bool) "b1-owned request ok" true
    (response_ok (Fleet.Router.handle_line router line_b));

  (* kill b0 mid-fleet: its requests fail over to b1 and still succeed *)
  stop_backend b0;
  let after_death = Fleet.Router.handle_line router line_a in
  Alcotest.(check bool) "failover answer ok" true (response_ok after_death);
  Alcotest.(check string) "failover answer still byte-identical" (strip_cached direct)
    (strip_cached after_death);
  Alcotest.(check bool) "failover recorded" true (counter router "failovers" >= 1);
  Alcotest.(check bool) "b0 suspected after request failure" true
    (backend_state router (name_of b0) = Fleet.Backend.Suspect);

  (* a probe pass confirms the death: Suspect -> Down *)
  force_probe router;
  Alcotest.(check bool) "b0 down after failed probe" true
    (backend_state router (name_of b0) = Fleet.Backend.Down);
  Alcotest.(check bool) "b1 still up" true
    (backend_state router (name_of b1) = Fleet.Backend.Up);

  (* the whole fleet dark: structured, retryable fleet_degraded *)
  stop_backend b1;
  let degraded = Fleet.Router.handle_line router line_b in
  Alcotest.(check bool) "degraded is an error" false (response_ok degraded);
  Alcotest.(check string) "degraded code" "fleet_degraded" (response_error_code degraded);
  Alcotest.(check bool) "degraded is retryable" true
    (Server.Protocol.retryable_code_string (response_error_code degraded));
  Alcotest.(check bool) "degraded carries retry hint" true
    (Server.Json.member_opt "retry_after_ms"
       (Server.Json.member "error" (Server.Json.of_string degraded))
    <> None);

  (* confirm b1's death too: Suspect -> Down *)
  force_probe router;
  Alcotest.(check bool) "b1 down after failed probe" true
    (backend_state router (name_of b1) = Fleet.Backend.Down);

  (* resurrection: a fresh process on b1's socket. Down -> Recovering ->
     (warm-cache handoff) -> Up. Nothing to pull (no Up peer), but the
     state machine must come back. *)
  restart_backend b1;
  force_probe router;
  Alcotest.(check bool) "b1 back up" true (backend_state router (name_of b1) = Fleet.Backend.Up);
  Alcotest.(check bool) "recovery recorded" true (counter router "recoveries" >= 1);

  (* warm b1 with the failover key again (it now owns line_a's answer
     in cache terms only if handed over -- recompute warms it) *)
  Alcotest.(check bool) "post-recovery request ok" true
    (response_ok (Fleet.Router.handle_line router line_a));

  (* resurrect b0 while b1 is Up and holds line_a (owned by b0): the
     recovery handoff must move that key to b0, so b0 answers it from
     cache without ever having computed it *)
  restart_backend b0;
  force_probe router;
  Alcotest.(check bool) "b0 back up" true (backend_state router (name_of b0) = Fleet.Backend.Up);
  Alcotest.(check bool) "handoff ran" true (counter router "handoffs" >= 1);
  Alcotest.(check bool) "handoff moved keys" true (counter router "handoff_keys" >= 1);
  let after_recovery = Fleet.Router.handle_line router line_a in
  Alcotest.(check bool) "recovered owner answers" true (response_ok after_recovery);
  Alcotest.(check bool) "answer came from the handed-over cache" true
    (result_member "cached" after_recovery = Server.Json.Bool true);
  Alcotest.(check string) "handed-over answer byte-identical" (strip_cached direct)
    (strip_cached after_recovery);

  stop_backend b0;
  stop_backend b1

let test_router_coalesces_identical_requests () =
  (* the one-shot compute delay holds the leader's flight open long
     enough that the second identical request must coalesce *)
  let faults =
    match Server.Faults.parse "compute=delay:400@1" with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  let b = start_backend ~faults () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  let line = analyze_line 3.5 in
  let responses = Array.make 2 "" in
  let threads =
    Array.init 2 (fun i ->
        Thread.create
          (fun () ->
            if i > 0 then Unix.sleepf 0.1;
            responses.(i) <- Fleet.Router.handle_line router line)
          ())
  in
  Array.iter Thread.join threads;
  Alcotest.(check bool) "both ok" true (Array.for_all response_ok responses);
  Alcotest.(check string) "follower got the leader's bytes" responses.(0) responses.(1);
  Alcotest.(check bool) "coalescing recorded" true (counter router "coalesced" >= 1);
  (* the backend computed once: a third request is a cache hit, and the
     service saw exactly one analyze before it *)
  let third = Fleet.Router.handle_line router line in
  Alcotest.(check bool) "one compute for two requests" true
    (result_member "cached" third = Server.Json.Bool true);
  stop_backend b

(* --- distributed tracing, access log, federation, SLO --- *)

let traced_analyze_line ~trace_id ?parent years =
  let open Server.Protocol in
  json_str
    (json_of_envelope
       {
         id = None;
         timeout_ms = None;
         trace = Some { Obs.Ctx.trace_id; parent_span = parent };
         request =
           Single
             (Analyze
                {
                  circuit = Named "c17";
                  flow = { default_flow_spec with years };
                  standby = Worst;
                });
       })

let with_collector f =
  let c = Obs.Trace.create () in
  Obs.Trace.install c;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () -> f c)

let spans_named c name = List.filter (fun s -> s.Obs.Trace.name = name) (Obs.Trace.spans c)

let test_trace_propagates_through_fleet () =
  (* Router and backend live in one process, so one installed collector
     sees both sides: the client's trace id must ride the envelope
     through the router onto the backend, and the backend's request
     span must parent onto the exact forward attempt that reached it. *)
  let b = start_backend () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  with_collector @@ fun c ->
  let tid = Obs.Trace.new_trace_id () in
  let response =
    Fleet.Router.handle_line router (traced_analyze_line ~trace_id:tid ~parent:"00c0ffee00c0ffee" 2.5)
  in
  Alcotest.(check bool) "traced request ok" true (response_ok response);
  (match spans_named c "fleet.forward" with
  | [ fwd ] ->
    Alcotest.(check (option string)) "forward span joins the client trace" (Some tid)
      fwd.Obs.Trace.trace_id;
    (* the backend's server-side request span parents onto that attempt *)
    let backend_request =
      List.find_opt
        (fun s -> s.Obs.Trace.name = "request" && s.Obs.Trace.cat = "server")
        (Obs.Trace.spans c)
    in
    (match backend_request with
    | Some s ->
      Alcotest.(check (option string)) "backend span joins the client trace" (Some tid)
        s.Obs.Trace.trace_id;
      Alcotest.(check bool) "backend span parents onto the forward attempt" true
        (s.Obs.Trace.parent = Obs.Trace.Remote (Obs.Trace.span_hex fwd.Obs.Trace.seq))
    | None -> Alcotest.fail "no backend request span recorded")
  | l -> Alcotest.failf "expected 1 forward span, got %d" (List.length l));
  (* the router's request root parents onto the span id the client sent *)
  (match
     List.find_opt
       (fun s -> s.Obs.Trace.name = "request" && s.Obs.Trace.cat = "fleet")
       (Obs.Trace.spans c)
   with
  | Some s ->
    Alcotest.(check (option string)) "router span joins the client trace" (Some tid)
      s.Obs.Trace.trace_id;
    Alcotest.(check bool) "router root parents onto the client span" true
      (s.Obs.Trace.parent = Obs.Trace.Remote "00c0ffee00c0ffee")
  | None -> Alcotest.fail "no router request span recorded");
  stop_backend b

let test_trace_survives_failover () =
  let b0 = start_backend () in
  let b1 = start_backend () in
  let router = Fleet.Router.create [ endpoint_of b0; endpoint_of b1 ] in
  let y = years_owned_by (Fleet.Router.ring router) (name_of b0) in
  stop_backend b0;
  with_collector @@ fun c ->
  let tid = Obs.Trace.new_trace_id () in
  let response = Fleet.Router.handle_line router (traced_analyze_line ~trace_id:tid y) in
  Alcotest.(check bool) "failover answer ok" true (response_ok response);
  (match spans_named c "fleet.forward" with
  | [ dead; live ] ->
    Alcotest.(check bool) "dead-owner attempt marked failed" false dead.Obs.Trace.ok;
    Alcotest.(check bool) "failover attempt succeeded" true live.Obs.Trace.ok;
    Alcotest.(check (option string)) "dead attempt keeps the trace" (Some tid)
      dead.Obs.Trace.trace_id;
    Alcotest.(check (option string)) "failover hop keeps the trace" (Some tid)
      live.Obs.Trace.trace_id
  | l -> Alcotest.failf "expected 2 forward spans (owner + failover), got %d" (List.length l));
  stop_backend b1

let test_trace_links_coalesced_followers () =
  let faults =
    match Server.Faults.parse "compute=delay:400@1" with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  let b = start_backend ~faults () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  with_collector @@ fun c ->
  let tid_leader = Obs.Trace.new_trace_id () in
  let tid_follower = Obs.Trace.new_trace_id () in
  let responses = Array.make 2 "" in
  let threads =
    [|
      Thread.create
        (fun () ->
          responses.(0) <- Fleet.Router.handle_line router (traced_analyze_line ~trace_id:tid_leader 6.5))
        ();
      Thread.create
        (fun () ->
          Unix.sleepf 0.1;
          responses.(1) <-
            Fleet.Router.handle_line router (traced_analyze_line ~trace_id:tid_follower 6.5))
        ();
    |]
  in
  Array.iter Thread.join threads;
  Alcotest.(check bool) "both ok" true (Array.for_all response_ok responses);
  Alcotest.(check bool) "coalescing recorded" true (counter router "coalesced" >= 1);
  (* The follower rode the leader's flight under a different trace: an
     instant marker in the follower's trace records the leader's id so
     the two traces are linkable. *)
  (match spans_named c "fleet.coalesced" with
  | [ marker ] ->
    Alcotest.(check (option string)) "marker belongs to the follower trace"
      (Some tid_follower) marker.Obs.Trace.trace_id;
    Alcotest.(check bool) "marker names the leader trace" true
      (List.assoc_opt "leader_trace_id" marker.Obs.Trace.args
      = Some (Obs.Fields.Str tid_leader))
  | l -> Alcotest.failf "expected 1 coalesced marker, got %d" (List.length l));
  stop_backend b

let test_access_log_records_routing () =
  let b = start_backend () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  let path = Filename.temp_file "fleet_access" ".jsonl" in
  let oc = open_out path in
  Server.Frontend.set_access_log router oc;
  Alcotest.(check bool) "request ok" true
    (response_ok (Fleet.Router.handle_line router (analyze_line 4.25)));
  Alcotest.(check bool) "stats ok" true
    (response_ok (Fleet.Router.handle_line router {|{"v":1,"op":"stats"}|}));
  close_out oc;
  let ic = open_in path in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Sys.remove path;
  (match lines with
  | [ forwarded; local ] ->
    let j = Server.Json.of_string forwarded in
    Alcotest.(check bool) "endpoint recorded" true
      (Server.Json.member_opt "endpoint" j = Some (Server.Json.String "analyze"));
    Alcotest.(check bool) "serving backend recorded" true
      (Server.Json.member_opt "backend" j = Some (Server.Json.String (name_of b)));
    Alcotest.(check bool) "failover_count recorded" true
      (Server.Json.member_opt "failover_count" j = Some (Server.Json.Int 0));
    Alcotest.(check bool) "coalesced recorded" true
      (Server.Json.member_opt "coalesced" j = Some (Server.Json.Bool false));
    (* locally-answered ops carry an explicit null backend (member_opt
       collapses present-null to absent, so inspect the assoc itself) *)
    let jl = Server.Json.of_string local in
    Alcotest.(check bool) "local op has null backend" true
      (List.assoc_opt "backend" (Server.Json.to_assoc jl) = Some Server.Json.Null)
  | l -> Alcotest.failf "expected 2 access records, got %d" (List.length l));
  stop_backend b

(* An envelope that does not decode is counted and access-logged by the
   router exactly as a backend does it: endpoint "invalid", no backend. *)
let test_access_log_records_envelope_errors () =
  let b = start_backend () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  let path = Filename.temp_file "fleet_access" ".jsonl" in
  let oc = open_out path in
  Server.Frontend.set_access_log router oc;
  let r = Fleet.Router.handle_line router {|{"v":1,"id":"bad-1","op":"teleport"}|} in
  Alcotest.(check string) "refused as invalid_request" "invalid_request" (response_error_code r);
  close_out oc;
  let ic = open_in path in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "counted as invalid" 1 (counter router "invalid_requests");
  (match lines with
  | [ record ] ->
    let j = Server.Json.to_assoc (Server.Json.of_string record) in
    Alcotest.(check bool) "endpoint invalid" true
      (List.assoc_opt "endpoint" j = Some (Server.Json.String "invalid"));
    Alcotest.(check bool) "cid echoes the id" true
      (List.assoc_opt "cid" j = Some (Server.Json.String "bad-1"));
    Alcotest.(check bool) "error code logged" true
      (List.assoc_opt "error" j = Some (Server.Json.String "invalid_request"));
    Alcotest.(check bool) "no backend served it" true
      (List.assoc_opt "backend" j = Some Server.Json.Null)
  | l -> Alcotest.failf "expected 1 access record, got %d" (List.length l));
  stop_backend b

let test_cluster_metrics_federation () =
  let slo =
    match Obs.Slo.parse_spec "analyze=60s:99" with
    | Ok objectives -> Obs.Slo.create objectives
    | Error m -> Alcotest.fail m
  in
  let b = start_backend () in
  let router = Fleet.Router.create ~slo [ endpoint_of b ] in
  (* warm the backend with traffic, then let a probe pass scrape it *)
  Alcotest.(check bool) "request ok" true
    (response_ok (Fleet.Router.handle_line router (analyze_line 3.25)));
  force_probe router;
  let response = Fleet.Router.handle_line router {|{"v":1,"op":"cluster_metrics"}|} in
  Alcotest.(check bool) "cluster_metrics ok" true (response_ok response);
  Alcotest.(check bool) "every backend scraped" true
    (result_member "backends_scraped" response = Server.Json.Int 1);
  let text =
    Server.Json.to_string_exn (result_member "prometheus" response)
  in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "per-backend relabelled family" true
    (contains (Printf.sprintf "nbti_requests_total{backend=\"%s\"" (name_of b)));
  Alcotest.(check bool) "fleet-merged latency histogram" true
    (contains "nbti_fleet_request_latency_seconds_bucket{endpoint=\"analyze\"");
  Alcotest.(check bool) "probe RTT gauge" true
    (contains (Printf.sprintf "nbti_fleet_probe_rtt_seconds{backend=\"%s\"" (name_of b)));
  Alcotest.(check bool) "SLO burn rate exported" true
    (contains "nbti_slo_burn_rate{op=\"analyze\",window=\"5m\"}");
  (* burn rates also surface in the router's stats *)
  let stats = Fleet.Router.handle_line router {|{"v":1,"op":"stats"}|} in
  (match result_member "slo" stats with
  | Server.Json.List [ Server.Json.Assoc o ] ->
    Alcotest.(check bool) "stats slo names the op" true
      (List.assoc_opt "op" o = Some (Server.Json.String "analyze"))
  | _ -> Alcotest.fail "router stats carry no slo block");
  (* probe RTT percentiles appear on the backend's stats entry *)
  (match result_member "backends" stats with
  | Server.Json.List [ backend_json ] ->
    Alcotest.(check bool) "probe_rtt block present" true
      (Server.Json.member_opt "probe_rtt" backend_json <> None)
  | _ -> Alcotest.fail "router stats carry no backends list");
  stop_backend b

(* --- structured health and graceful drain --- *)

let test_health_states_and_drain () =
  let t = Server.Service.create () in
  let health () =
    Server.Json.member "result"
      (Server.Json.of_string (Server.Service.handle_line t {|{"v":1,"op":"health"}|}))
  in
  let h = health () in
  Alcotest.(check string) "wire-compat status field" "ok"
    Server.Json.(to_string_exn (member "status" h));
  Alcotest.(check string) "structured state" "ok" Server.Json.(to_string_exn (member "state" h));
  Alcotest.(check int) "pending" 0 Server.Json.(to_int (member "pending" h));
  Alcotest.(check bool) "max_pending present" true
    (Server.Json.member_opt "max_pending" h <> None);
  Server.Frontend.drain t;
  let h = health () in
  Alcotest.(check string) "draining state" "draining"
    Server.Json.(to_string_exn (member "state" h));
  Alcotest.(check string) "status stays ok for old probes" "ok"
    Server.Json.(to_string_exn (member "status" h))

(* The router drains like a backend: with a forward in flight, a drain
   flips its health to "draining", stops the accept loop, and [serve]
   returns only once that forward has answered, within the bound. *)
let test_router_drains_in_flight () =
  let faults =
    match Server.Faults.parse "compute=delay:600@1" with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  let b = start_backend ~faults () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  let path = fresh_socket_path () in
  let serve_returned = ref 0.0 in
  let serving =
    let t = start_service_at router path in
    Thread.create
      (fun () ->
        Thread.join t;
        serve_returned := Unix.gettimeofday ())
      ()
  in
  let answered = ref 0.0 in
  let response = ref "" in
  let client =
    Thread.create
      (fun () ->
        let c = Server.Client.create (Server.Netline.Unix_socket path) in
        (match Server.Client.call c (analyze_line 8.5) with
        | Ok r -> response := r
        | Error { Server.Client.reason; _ } -> response := reason);
        answered := Unix.gettimeofday ();
        Server.Client.close c)
      ()
  in
  (* let the request reach the backend's delayed compute, then drain *)
  Unix.sleepf 0.2;
  Alcotest.(check int) "the forward is in flight" 1 (Server.Frontend.connections router);
  let drained_at = Unix.gettimeofday () in
  Server.Frontend.drain router;
  let health =
    Server.Json.member "result"
      (Server.Json.of_string (Fleet.Router.handle_line router {|{"v":1,"op":"health"}|}))
  in
  Alcotest.(check string) "health reports the drain" "draining"
    Server.Json.(to_string_exn (member "state" health));
  Thread.join client;
  Thread.join serving;
  Alcotest.(check bool) ("in-flight request answered ok: " ^ !response) true (response_ok !response);
  Alcotest.(check bool) "serve waited for the in-flight request" true
    (!serve_returned >= !answered);
  Alcotest.(check bool) "serve returned within the drain bound" true
    (!serve_returned -. drained_at
    < float_of_int Server.Frontend.default_drain_timeout_ms /. 1000.0);
  Alcotest.(check bool) "the socket file is gone" false (Sys.file_exists path);
  stop_backend b

(* A draining service closes its idle connections at once and waits
   only for the request in flight: with one of each, [serve] returns
   right after that request is answered, well inside the drain bound. *)
let test_drain_waits_for_requests_not_idle_connections () =
  let faults =
    match Server.Faults.parse "compute=delay:600@1" with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  let service = Server.Service.create ~faults () in
  let path = fresh_socket_path () in
  let serve_returned = ref 0.0 in
  let serving =
    let t = start_service_at service path in
    Thread.create
      (fun () ->
        Thread.join t;
        serve_returned := Unix.gettimeofday ())
      ()
  in
  (* an idle connection: one answered request, then nothing *)
  let idle = Server.Client.create (Server.Netline.Unix_socket path) in
  (match Server.Client.call idle {|{"v":1,"op":"health"}|} with
  | Ok r -> Alcotest.(check bool) "idle connection answered once" true (response_ok r)
  | Error { Server.Client.reason; _ } -> Alcotest.fail reason);
  let response = ref "" in
  let busy =
    Thread.create
      (fun () ->
        let c = Server.Client.create (Server.Netline.Unix_socket path) in
        (match Server.Client.call c (analyze_line 9.5) with
        | Ok r -> response := r
        | Error { Server.Client.reason; _ } -> response := reason);
        Server.Client.close c)
      ()
  in
  (* let the request reach the delayed compute, then drain *)
  Unix.sleepf 0.2;
  Alcotest.(check int) "one idle and one busy connection" 2 (Server.Frontend.connections service);
  let drained_at = Unix.gettimeofday () in
  Server.Frontend.drain service;
  Thread.join busy;
  Thread.join serving;
  Alcotest.(check bool) ("in-flight request answered ok: " ^ !response) true (response_ok !response);
  Alcotest.(check bool)
    (Printf.sprintf "serve returned %.2f s after the drain, not after the %d ms bound"
       (!serve_returned -. drained_at) Server.Frontend.default_drain_timeout_ms)
    true
    (!serve_returned -. drained_at < 1.5);
  Alcotest.(check int) "every connection closed" 0 (Server.Frontend.connections service);
  Server.Client.close idle

(* [serve] returning shuts down every connection it accepted: a peer
   still holding one reads EOF instead of an answer from a stopped
   service. *)
let test_serve_return_closes_connections () =
  let service = Server.Service.create () in
  let path = fresh_socket_path () in
  let serving = start_service_at service path in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send () =
    try
      output_string oc "{\"v\":1,\"op\":\"health\"}\n";
      flush oc
    with Sys_error _ -> ()
  in
  send ();
  Alcotest.(check bool) "answered while serving" true (response_ok (input_line ic));
  Server.Frontend.stop service;
  Thread.join serving;
  send ();
  (match input_line ic with
  | line -> Alcotest.fail ("a stopped service answered: " ^ line)
  | exception End_of_file -> ());
  Unix.close fd

(* --- router: connection reuse --- *)

let prometheus_has router line =
  let r =
    Server.Json.of_string (Fleet.Router.handle_line router {|{"v":1,"op":"metrics"}|})
  in
  let text = Server.Json.(to_string_exn (member "prometheus" (member "result" r))) in
  List.mem line (String.split_on_char '\n' text)

let test_router_reuses_one_connection () =
  let b = start_backend () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  for i = 1 to 50 do
    Alcotest.(check bool) "forward ok" true
      (response_ok (Fleet.Router.handle_line router (analyze_line (float_of_int (1 + (i mod 7))))))
  done;
  Alcotest.(check int) "50 forward attempts" 50 (counter router "forward_attempts");
  Alcotest.(check int) "one connection" 1 (counter router "backend_connects");
  let stats = Fleet.Router.handle_line router {|{"v":1,"op":"stats"}|} in
  Alcotest.(check bool) "stats counts the connects" true
    (Server.Json.member "backend_connects" (result_member "counters" stats) = Server.Json.Int 1);
  Alcotest.(check bool) "metrics count the connects" true
    (prometheus_has router {|nbti_events_total{event="backend_connects"} 1|});
  stop_backend b

(* A backend restarted between two forwards closed the connection the
   router kept; the next forward replaces it at once, with no failover
   and no backoff sleep. The backoff floor is 10 ms, so the fastest of
   three restarts must beat it. *)
let test_router_reconnects_after_restart () =
  let b = start_backend () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  let line = analyze_line 2.0 in
  Alcotest.(check bool) "first forward ok" true (response_ok (Fleet.Router.handle_line router line));
  let fastest = ref infinity in
  for _ = 1 to 3 do
    stop_backend b;
    restart_backend b;
    (* warm the new process directly, so the routed forward is a hit *)
    Alcotest.(check bool) "warmed" true (response_ok (Server.Service.handle_line b.service line));
    let t0 = Unix.gettimeofday () in
    let r = Fleet.Router.handle_line router line in
    fastest := Float.min !fastest (Unix.gettimeofday () -. t0);
    Alcotest.(check bool) "forward after restart ok" true (response_ok r);
    Alcotest.(check bool) "answered by the restarted backend" true
      (result_member "cached" r = Server.Json.Bool true)
  done;
  Alcotest.(check int) "no failover" 0 (counter router "failovers");
  Alcotest.(check int) "no backend failure" 0 (counter router "backend_failures");
  Alcotest.(check int) "one attempt per forward" 4 (counter router "forward_attempts");
  Alcotest.(check int) "one connection per backend process" 4 (counter router "backend_connects");
  Alcotest.(check bool) "backend still up" true
    (backend_state router (name_of b) = Fleet.Backend.Up);
  Alcotest.(check bool)
    (Printf.sprintf "reconnected without a backoff sleep (fastest %.2f ms)" (!fastest *. 1e3))
    true (!fastest < 0.010);
  stop_backend b

let analyze_line_with_timeout ~timeout_ms years =
  let open Server.Protocol in
  json_str
    (json_of_envelope
       {
         id = None;
         timeout_ms = Some timeout_ms;
         trace = None;
         request =
           Single
             (Analyze
                { circuit = Named "c17"; flow = { default_flow_spec with years }; standby = Worst });
       })

(* A forward whose read timeout expires drops its connection: the
   backend's late answer goes to a closed socket, and the next forward
   reads its own answer, not that one. A forward with timeout_ms 1000
   reads for max(5 s, 4 x 1 s) = 5 s, also on a connection a forward
   without a timeout opened. *)
let test_router_drops_timed_out_connection () =
  let b = start_backend () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  Alcotest.(check bool) "a forward without a timeout" true
    (response_ok (Fleet.Router.handle_line router (analyze_line 10.5)));
  (match Server.Faults.parse "compute=delay:5600@1" with
  | Ok f -> Server.Service.set_faults b.service f
  | Error m -> Alcotest.fail m);
  let t0 = Unix.gettimeofday () in
  let slow = Fleet.Router.handle_line router (analyze_line_with_timeout ~timeout_ms:1000 11.0) in
  Alcotest.(check bool) "the in-place retry answered" true (response_ok slow);
  Alcotest.(check int) "timed out and retried on a new connection" 2
    (counter router "backend_connects");
  (* the late answer (deadline_exceeded) is written by now *)
  Unix.sleepf (Float.max 0.0 (t0 +. 5.9 -. Unix.gettimeofday ()));
  let line = analyze_line_with_timeout ~timeout_ms:1000 12.0 in
  let routed = Fleet.Router.handle_line router line in
  let direct = Server.Service.handle_line (Server.Service.create ()) line in
  Alcotest.(check string) "the next forward reads its own answer" (strip_cached direct)
    (strip_cached routed);
  Alcotest.(check int) "on the connection kept from the retry" 2
    (counter router "backend_connects");
  stop_backend b

(* Two forwards in flight to one backend at once hold one connection
   each; both go back to the idle set afterwards. *)
let test_router_concurrent_forwards_use_two_connections () =
  let faults =
    match Server.Faults.parse "compute=delay:300@2" with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  let b = start_backend ~faults () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  let responses = Array.make 2 "" in
  let threads =
    Array.init 2 (fun i ->
        Thread.create
          (fun () ->
            responses.(i) <- Fleet.Router.handle_line router (analyze_line (20.0 +. float_of_int i)))
          ())
  in
  Array.iter Thread.join threads;
  Alcotest.(check bool) "both ok" true (Array.for_all response_ok responses);
  Alcotest.(check int) "no coalescing: different keys" 0 (counter router "coalesced");
  Alcotest.(check int) "two connections" 2 (counter router "backend_connects");
  for i = 1 to 4 do
    Alcotest.(check bool) "later forward ok" true
      (response_ok (Fleet.Router.handle_line router (analyze_line (30.0 +. float_of_int i))))
  done;
  Alcotest.(check int) "later forwards reuse them" 2 (counter router "backend_connects");
  stop_backend b

let test_cache_export_import_roundtrip () =
  let src = Server.Service.create () in
  let line = analyze_line 7.25 in
  Alcotest.(check bool) "computed on source" true
    (response_ok (Server.Service.handle_line src line));
  let exported =
    Server.Json.member "result"
      (Server.Json.of_string
         (Server.Service.handle_line src {|{"v":1,"op":"cache_export","max_entries":8}|}))
  in
  let entries = Server.Json.member "entries" exported in
  Alcotest.(check bool) "export has entries" true
    (match entries with Server.Json.List (_ :: _) -> true | _ -> false);
  (* import the snapshot into a fresh service: the same request is now
     a cache hit there, payload byte-identical *)
  let dst = Server.Service.create () in
  let import_line =
    json_str
      (Server.Json.Assoc
         [
           ("v", Server.Json.Int Server.Protocol.version);
           ("op", Server.Json.String "cache_import");
           ("entries", entries);
         ])
  in
  let imported = Server.Service.handle_line dst import_line in
  Alcotest.(check bool) "import ok" true (response_ok imported);
  Alcotest.(check bool) "imported count positive" true
    (Server.Json.(to_int (member "imported" (member "result" (of_string imported)))) >= 1);
  let served = Server.Service.handle_line dst line in
  Alcotest.(check bool) "import produces a cache hit" true
    (result_member "cached" served = Server.Json.Bool true);
  Alcotest.(check string) "imported payload byte-identical"
    (strip_cached (Server.Service.handle_line src line))
    (strip_cached served)

(* --- client: connection refusal is retryable --- *)

let test_client_retries_refused_connection () =
  let path = fresh_socket_path () in
  let client = Server.Client.create (Server.Netline.Unix_socket path) in
  let sleeps = ref 0 in
  let policy = { Server.Retry.retries = 2; base_ms = 1; cap_ms = 2 } in
  (match
     Server.Client.call client ~policy
       ~on_retry:(fun ~attempt:_ ~reason:_ ~sleep_ms:_ -> incr sleeps)
       {|{"v":1,"op":"health"}|}
   with
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error { Server.Client.attempts; last_response; _ } ->
    Alcotest.(check int) "every configured retry consumed" 3 attempts;
    Alcotest.(check int) "backed off between attempts" 2 !sleeps;
    Alcotest.(check bool) "no response to surface" true (last_response = None));
  Server.Client.close client;
  (* a server that comes up mid-retry turns the same call into a
     success: refused connections behave exactly like overload *)
  let service = Server.Service.create () in
  let starter =
    Thread.create
      (fun () ->
        Unix.sleepf 0.15;
        ignore (start_service_at service path))
      ()
  in
  let client = Server.Client.create (Server.Netline.Unix_socket path) in
  let policy = { Server.Retry.retries = 10; base_ms = 50; cap_ms = 100 } in
  (match Server.Client.call client ~policy {|{"v":1,"op":"health"}|} with
  | Ok response -> Alcotest.(check bool) "healthy once up" true (response_ok response)
  | Error { Server.Client.reason; _ } -> Alcotest.fail ("still failing: " ^ reason));
  Server.Client.close client;
  Thread.join starter;
  Server.Frontend.stop service

(* --- router rejects backend-local ops --- *)

let test_router_rejects_cache_ops () =
  let b = start_backend () in
  let router = Fleet.Router.create [ endpoint_of b ] in
  let r = Fleet.Router.handle_line router {|{"v":1,"op":"cache_export"}|} in
  Alcotest.(check bool) "cache_export rejected at router" false (response_ok r);
  Alcotest.(check string) "invalid_request" "invalid_request" (response_error_code r);
  (* health/stats answer locally with fleet shape *)
  let h = Server.Json.member "result"
      (Server.Json.of_string (Fleet.Router.handle_line router {|{"v":1,"op":"health"}|}))
  in
  Alcotest.(check string) "router role" "router"
    Server.Json.(to_string_exn (member "role" h));
  let s = Server.Json.member "result"
      (Server.Json.of_string (Fleet.Router.handle_line router {|{"v":1,"op":"stats"}|}))
  in
  Alcotest.(check bool) "stats lists backends" true
    (match Server.Json.member "backends" s with
    | Server.Json.List [ _ ] -> true
    | _ -> false);
  stop_backend b

(* --- equal structure, different names --- *)

(* c499 and c1355 share a structural digest. Routed, each answer must
   still carry its own name, byte-identical to a fresh direct service;
   the router resolves each circuit once and reports it like a backend. *)
let test_router_equal_structure_keeps_names () =
  let b0 = start_backend () in
  let b1 = start_backend () in
  let router = Fleet.Router.create [ endpoint_of b0; endpoint_of b1 ] in
  let c1355 = analyze_line ~circuit:"c1355" 10.0 in
  Alcotest.(check bool) "c499 ok" true
    (response_ok (Fleet.Router.handle_line router (analyze_line ~circuit:"c499" 10.0)));
  let routed = Fleet.Router.handle_line router c1355 in
  let fresh = Server.Service.handle_line (Server.Service.create ()) c1355 in
  Alcotest.(check string) "routed c1355 = fresh direct c1355" (strip_cached fresh)
    (strip_cached routed);
  Alcotest.(check bool) "computed, not c499's cached answer" true
    (result_member "cached" routed = Server.Json.Bool false);
  ignore (Fleet.Router.handle_line router c1355);
  let result line = Server.Json.member "result" (Server.Json.of_string (Fleet.Router.handle_line router line)) in
  let circuits = Server.Json.(member "circuits" (member "cache" (result {|{"v":1,"op":"stats"}|}))) in
  Alcotest.(check (pair int int)) "router resolved each circuit once" (2, 1)
    Server.Json.(to_int (member "misses" circuits), to_int (member "hits" circuits));
  let prometheus = Server.Json.(to_string_exn (member "prometheus" (result {|{"v":1,"op":"metrics"}|}))) in
  Alcotest.(check bool) "router exports the circuits cache" true
    (List.mem {|nbti_cache_hits_total{cache="circuits"} 1|} (String.split_on_char '\n' prometheus));
  stop_backend b0;
  stop_backend b1

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_remove_one_backend_is_stable; prop_add_one_backend_only_captures ]

let () =
  Alcotest.run "fleet"
    [
      ( "ring",
        Alcotest.test_case "validation and preference" `Quick test_ring_validation :: props );
      ( "singleflight",
        [
          Alcotest.test_case "coalesces concurrent callers" `Quick test_singleflight_coalesces;
          Alcotest.test_case "shares errors" `Quick test_singleflight_shares_errors;
        ] );
      ( "router",
        [
          Alcotest.test_case "route, failover, degrade, recover, handoff" `Quick
            test_router_end_to_end;
          Alcotest.test_case "coalesces identical requests" `Quick
            test_router_coalesces_identical_requests;
          Alcotest.test_case "equal structure keeps names" `Quick
            test_router_equal_structure_keeps_names;
          Alcotest.test_case "drains an in-flight forward" `Quick test_router_drains_in_flight;
          Alcotest.test_case "drains in-flight requests, not idle connections" `Quick
            test_drain_waits_for_requests_not_idle_connections;
          Alcotest.test_case "serve returning closes its connections" `Quick
            test_serve_return_closes_connections;
          Alcotest.test_case "rejects backend-local cache ops" `Quick
            test_router_rejects_cache_ops;
        ] );
      ( "connections",
        [
          Alcotest.test_case "50 sequential forwards open one connection" `Quick
            test_router_reuses_one_connection;
          Alcotest.test_case "a restarted backend costs one immediate reconnect" `Quick
            test_router_reconnects_after_restart;
          Alcotest.test_case "a timed-out forward drops its connection" `Quick
            test_router_drops_timed_out_connection;
          Alcotest.test_case "concurrent forwards use two connections" `Quick
            test_router_concurrent_forwards_use_two_connections;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace id propagates client -> router -> backend" `Quick
            test_trace_propagates_through_fleet;
          Alcotest.test_case "trace survives failover" `Quick test_trace_survives_failover;
          Alcotest.test_case "coalesced follower links the leader trace" `Quick
            test_trace_links_coalesced_followers;
          Alcotest.test_case "access log records envelope errors" `Quick
            test_access_log_records_envelope_errors;
          Alcotest.test_case "access log records routing fields" `Quick
            test_access_log_records_routing;
          Alcotest.test_case "cluster_metrics federates backends + SLO" `Quick
            test_cluster_metrics_federation;
        ] );
      ( "service",
        [
          Alcotest.test_case "structured health and drain" `Quick test_health_states_and_drain;
          Alcotest.test_case "cache export/import round trip" `Quick
            test_cache_export_import_roundtrip;
        ] );
      ( "client",
        [
          Alcotest.test_case "refused connection retries like overload" `Quick
            test_client_retries_refused_connection;
        ] );
    ]
