(* Chaos and fault-tolerance tests for the serving layer: deadlines,
   admission control / load shedding, fault injection, malformed input,
   vanished peers, the byte-bounded cache and the retry schedule. *)

let ok_or_fail = function Ok v -> v | Error m -> Alcotest.fail m

let faults spec = ok_or_fail (Server.Faults.parse spec)

let response_code json =
  match Server.Protocol.response_result json with
  | Ok _ -> None
  | Error (code, _) -> Some code

let dispatch t line = Server.Json.of_string (Server.Service.handle_line t line)

let expect_code t code line =
  match response_code (dispatch t line) with
  | Some c -> Alcotest.(check string) ("code for " ^ line) code c
  | None -> Alcotest.fail ("expected error " ^ code ^ " for " ^ line)

let expect_ok t line =
  match Server.Protocol.response_result (dispatch t line) with
  | Ok r -> r
  | Error (code, m) -> Alcotest.fail (code ^ ": " ^ m)

(* --- Budget --- *)

let test_budget_basics () =
  let open Parallel.Budget in
  Alcotest.(check bool) "unlimited never expires" false (expired unlimited);
  Alcotest.(check bool) "unlimited reports so" true (is_unlimited unlimited);
  Alcotest.(check bool) "unlimited has no remaining" true (remaining_s unlimited = None);
  check unlimited;
  let b = of_timeout_ms 0 in
  Unix.sleepf 0.002;
  Alcotest.(check bool) "zero budget expires" true (expired b);
  Alcotest.(check bool) "check raises" true
    (try
       check b;
       false
     with Deadline_exceeded -> true);
  let long = of_timeout_s 60.0 in
  Alcotest.(check bool) "fresh budget not expired" false (expired long);
  match remaining_s long with
  | Some r -> Alcotest.(check bool) "remaining sane" true (r > 0.0 && r <= 60.0)
  | None -> Alcotest.fail "bounded budget must report remaining"

let test_pool_budget_cancels () =
  let pool = Parallel.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      (* an expired budget aborts the region before completing it *)
      let raised =
        try
          ignore
            (Parallel.Pool.init pool ~budget:(Parallel.Budget.of_timeout_ms 0) 1000 (fun i ->
                 Unix.sleepf 0.001;
                 i));
          false
        with Parallel.Budget.Deadline_exceeded -> true
      in
      Alcotest.(check bool) "expired budget raises from pool" true raised;
      (* an unlimited budget changes nothing *)
      let a = Parallel.Pool.init pool ~budget:Parallel.Budget.unlimited 64 (fun i -> i * i) in
      let b = Parallel.Pool.init pool 64 (fun i -> i * i) in
      Alcotest.(check bool) "budget does not change results" true (a = b))

(* --- Deadlines through the service --- *)

let test_deadline_exceeded_within_2x () =
  let t = Server.Service.create () in
  (* the injected compute delay (300 ms) overshoots the request budget
     (200 ms); the budget check directly after the fault must fire *)
  Server.Service.set_faults t (faults "compute=delay:300");
  let t0 = Unix.gettimeofday () in
  let response =
    dispatch t "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\",\"timeout_ms\":200}"
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (option string)) "deadline_exceeded" (Some "deadline_exceeded")
    (response_code response);
  Alcotest.(check bool)
    (Printf.sprintf "answered within 2x budget (%.0f ms)" (elapsed *. 1000.0))
    true (elapsed < 0.400);
  (* the failure is counted and the daemon still works *)
  Server.Service.set_faults t Server.Faults.none;
  ignore (expect_ok t "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\",\"timeout_ms\":30000}");
  let stats = expect_ok t "{\"v\":1,\"op\":\"stats\"}" in
  Alcotest.(check int) "deadline counter" 1
    Server.Json.(to_int (member "deadline_exceeded" (member "counters" stats)))

let test_default_timeout_applies () =
  let limits =
    { Server.Service.default_limits with Server.Service.default_timeout_ms = Some 100 }
  in
  let t = Server.Service.create ~limits () in
  Server.Service.set_faults t (faults "compute=delay:200");
  let response = dispatch t "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\"}" in
  Alcotest.(check (option string)) "server default budget enforced" (Some "deadline_exceeded")
    (response_code response)

(* --- Protocol error paths --- *)

let test_protocol_error_paths () =
  let t = Server.Service.create () in
  expect_code t "parse_error" "{not json";
  expect_code t "parse_error" "{\"v\":1,\"op\":";
  expect_code t "unsupported_version" "{\"op\":\"health\"}";
  expect_code t "unsupported_version" "{\"v\":99,\"op\":\"health\"}";
  expect_code t "invalid_request" "{\"v\":1,\"op\":\"teleport\"}";
  expect_code t "bad_request" "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"nope\"}";
  (* a value outside timeout_ms's domain; a non-integer stays a bad_request *)
  expect_code t "invalid_request" "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\",\"timeout_ms\":-5}";
  expect_code t "bad_request" "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\",\"timeout_ms\":\"5\"}";
  expect_code t "bad_request" "{\"v\":1,\"op\":\"batch\",\"jobs\":[]}";
  (* batch size limit *)
  let limits = { Server.Service.default_limits with Server.Service.max_batch_jobs = 2 } in
  let t2 = Server.Service.create ~limits () in
  let job = "{\"op\":\"analyze\",\"circuit\":\"c17\"}" in
  expect_code t2 "invalid_request"
    (Printf.sprintf "{\"v\":1,\"op\":\"batch\",\"jobs\":[%s,%s,%s]}" job job job);
  ignore (expect_ok t2 (Printf.sprintf "{\"v\":1,\"op\":\"batch\",\"jobs\":[%s,%s]}" job job))

let circuits_stat t field =
  Server.Json.(to_int (member field (member "circuits" (member "cache" (expect_ok t "{\"v\":1,\"op\":\"stats\"}")))))

let test_gate_limit () =
  let limits = { Server.Service.default_limits with Server.Service.max_gates = 3 } in
  let t = Server.Service.create ~limits () in
  expect_code t "invalid_request" "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\"}";
  (* health is not a compute path and keeps working *)
  ignore (expect_ok t "{\"v\":1,\"op\":\"health\"}");
  (* the limit holds on every request, memoized circuits included:
     c432's 160 gates exceed 100 on the first and the second send *)
  let limits = { Server.Service.default_limits with Server.Service.max_gates = 100 } in
  let t = Server.Service.create ~limits () in
  let c432 = "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c432\"}" in
  expect_code t "invalid_request" c432;
  expect_code t "invalid_request" c432;
  Alcotest.(check int) "second request resolved from the memo" 1 (circuits_stat t "hits")

let test_rejected_circuits_not_memoized () =
  let limits = { Server.Service.default_limits with Server.Service.max_line_bytes = 64 } in
  let t = Server.Service.create ~limits () in
  let bench text =
    Server.Json.to_string
      (Server.Json.Assoc
         [
           ("v", Server.Json.Int 1);
           ("op", Server.Json.String "analyze");
           ("circuit", Server.Json.Assoc [ ("bench", Server.Json.String text) ]);
         ])
  in
  let oversize = bench ("# " ^ String.make 80 'x' ^ "\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n") in
  for _ = 1 to 2 do
    expect_code t "bad_request" "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c9999\"}";
    expect_code t "invalid_request" oversize
  done;
  Alcotest.(check int) "nothing memoized" 0 (circuits_stat t "size");
  ignore (expect_ok t (bench "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n"));
  Alcotest.(check int) "a valid upload is" 1 (circuits_stat t "size")

(* --- Wire field limits, from the request-field table --- *)

module F = Server.Request_fields

(* A value placed at [keys] in a request, whether its field's domain
   takes it, and (rejected) the field and bounds the error must name. *)
type edge = {
  keys : string list;
  value : Server.Json.t;
  accepted : bool;
  field : string;
  bounds : (string * float) list;
}

(* Just inside and just outside each bound of a leaf kind. *)
let rec kind_edges : type a. a F.kind -> (Server.Json.t * bool * (string * float) list) list =
 fun kind ->
  let open Server.Json in
  match kind with
  | F.Float { min; max } ->
    let b = function F.Incl b | F.Excl b -> b in
    let bounds =
      List.filter_map
        (fun (name, bound) -> Option.map (fun x -> (name, b x)) bound)
        [ ("min", min); ("max", max) ]
    in
    let edge inside outside = [ (Float inside, true, []); (Float outside, false, bounds) ] in
    (match min with
    | Some (F.Incl b) -> edge b (Float.pred b)
    | Some (F.Excl b) -> edge (Float.succ b) b
    | None -> [])
    @ (match max with
      | Some (F.Incl b) -> edge b (Float.succ b)
      | Some (F.Excl b) -> edge (Float.pred b) b
      | None -> [])
  | F.Int { min; max } ->
    let bounds =
      List.filter_map
        (fun (name, bound) -> Option.map (fun x -> (name, float_of_int x)) bound)
        [ ("min", min); ("max", max) ]
    in
    let edge inside outside = [ (Int inside, true, []); (Int outside, false, bounds) ] in
    Option.fold ~none:[] ~some:(fun b -> edge b (b - 1)) min
    @ Option.fold ~none:[] ~some:(fun b -> edge b (b + 1)) max
  | F.Enum _ | F.Alt _ -> [ (String "nonesuch", false, []) ]
  | F.Optional k -> kind_edges k
  | F.Bool | F.Pair _ | F.Object _ | F.Custom _ -> []

let rec field_edges : type a. string list -> a F.t -> edge list =
 fun keys f ->
  let keys = keys @ [ f.F.name ] in
  let path = String.concat "." keys in
  let leaf ?(field = path) (value, accepted, bounds) = { keys; value; accepted; field; bounds } in
  match f.F.kind with
  | F.Pair (ka, kb) ->
    let a, b = f.F.default in
    List.map
      (fun (v, ok, bounds) -> leaf ~field:(path ^ "[0]") (Server.Json.List [ v; F.write kb b ], ok, bounds))
      (kind_edges ka)
    @ List.map
        (fun (v, ok, bounds) -> leaf ~field:(path ^ "[1]") (Server.Json.List [ F.write ka a; v ], ok, bounds))
        (kind_edges kb)
  | F.Object o -> List.concat_map (fun (F.Any m) -> field_edges keys m) (F.members o)
  | F.Alt (_, o) ->
    List.map leaf (kind_edges f.F.kind)
    @ List.concat_map (fun (F.Any m) -> field_edges keys m) (F.members o)
  | F.Custom _ -> begin
    let open Server.Json in
    let triple t = List [ Float t; Float 400.0; Float 1.0 ] in
    match f.F.name with
    | "standby" -> List.map leaf [ (String "2x", false, []); (String "01010", true, []) ]
    | "predict" ->
      List.map leaf
        [
          (List [ triple 0.0 ], false, []);
          (List (List.init (Calibrate.Engine.max_predict_points + 1) (fun _ -> triple 3.1e8)), false, []);
          (List [ triple 3.1e8 ], true, []);
        ]
    | name -> Alcotest.fail ("no edges for custom field " ^ name)
  end
  | _ -> List.map leaf (kind_edges f.F.kind)

let rec put keys v (json : Server.Json.t) =
  match (keys, json) with
  | [], _ -> v
  | k :: rest, Server.Json.Assoc kvs ->
    let inner = Option.value ~default:(Server.Json.Assoc []) (List.assoc_opt k kvs) in
    Server.Json.Assoc (List.remove_assoc k kvs @ [ (k, put rest v inner) ])
  | _ -> Alcotest.fail "put into a non-object"

(* Requests small enough to serve every accepted edge: c17 for jobs, a
   three-point dataset and 20 iterations of one chain for calibrate. *)
let base_request op =
  let open Server.Json in
  Assoc
    (("v", Int 1) :: ("op", String op)
    ::
    (if op = "calibrate" then
       [
         ("csv", String "1e3,400,1.0,0.010\n1e5,400,1.0,0.020\n1e7,400,1.0,0.035");
         ("chains", Int 1);
         ("warmup", Int 10);
         ("samples", Int 10);
       ]
     else [ ("circuit", String "c17") ]))

(* The shared config codec is exercised under analyze; each op adds its
   own members, and misspelt members are unknown. *)
let op_edges op =
  let members = List.assoc op Server.Protocol.request_fields in
  let own = List.filter (fun (F.Any f) -> op = "analyze" || f.F.name <> "config") members in
  let unknown keys = { keys; value = Server.Json.Assoc []; accepted = false; field = String.concat "." keys; bounds = [] } in
  List.concat_map (fun (F.Any f) -> field_edges [] f) own
  @
  match op with
  | "analyze" -> [ unknown [ "config"; "t_activ" ]; unknown [ "confg" ] ]
  | "calibrate" -> [ unknown [ "chain" ] ]
  | _ -> [ unknown [ "confg" ] ]

let rec has_null = function
  | Server.Json.Null -> true
  | Server.Json.List xs -> List.exists has_null xs
  | Server.Json.Assoc kvs -> List.exists (fun (_, v) -> has_null v) kvs
  | _ -> false

let check_field_limits name handle ~op =
  let edges = op_edges op in
  let rejects = List.filter (fun e -> not e.accepted) edges in
  List.iter
    (fun e ->
      let line = Server.Json.to_string (put e.keys e.value (base_request op)) in
      let response = Server.Json.of_string (handle line) in
      if e.accepted then begin
        (* calibrate's upper work-size edges meet the cross-field
           iteration cap instead, a bad_request before any sampling *)
        match response_code response with
        | None -> Alcotest.(check bool) (name ^ " no null in " ^ line) false (has_null response)
        | Some code when op = "calibrate" && code = "bad_request" -> ()
        | Some code -> Alcotest.fail (name ^ ": " ^ code ^ " for accepted " ^ line)
      end
      else begin
        Alcotest.(check (option string)) (name ^ " code for " ^ line) (Some "invalid_request")
          (response_code response);
        let error = Server.Json.member "error" response in
        Alcotest.(check string) (name ^ " field for " ^ line) e.field
          Server.Json.(to_string_exn (member "field" error));
        List.iter
          (fun (key, bound) ->
            Alcotest.(check (float 0.0)) (name ^ " " ^ key ^ " for " ^ line) bound
              Server.Json.(to_float (member key error)))
          e.bounds
      end)
    edges;
  (* the same limits hold inside a batch *)
  if op <> "calibrate" then begin
    let first = List.hd rejects in
    let job =
      match put first.keys first.value (base_request op) with
      | Server.Json.Assoc kvs -> Server.Json.Assoc (List.remove_assoc "v" kvs)
      | j -> j
    in
    let batch = Server.Json.(Assoc [ ("v", Int 1); ("op", String "batch"); ("jobs", List [ job ]) ]) in
    Alcotest.(check (option string)) (name ^ " batch job") (Some "invalid_request")
      (response_code (Server.Json.of_string (handle (Server.Json.to_string batch))))
  end;
  List.length rejects + if op = "calibrate" then 0 else 1

let check_limits_direct ~op () =
  let t = Server.Service.create () in
  let rejected = check_field_limits "direct" (Server.Service.handle_line t) ~op in
  let stats = expect_ok t "{\"v\":1,\"op\":\"stats\"}" in
  Alcotest.(check int) "every rejection counted as invalid" rejected
    Server.Json.(to_int (member "invalid_requests" (member "counters" stats)))

(* --- Positioned .bench errors --- *)

let bench_error text =
  match Circuit.Bench_io.parse_result ~name:"t" text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let test_bench_positioned_errors () =
  let e = bench_error "INPUT(a)\nz = FOO(a)\nOUTPUT(z)\n" in
  Alcotest.(check (option int)) "unknown gate line" (Some 2) e.Circuit.Bench_io.line;
  let e = bench_error "INPUT(a)\nz = NOT(a, a)\nOUTPUT(z)\n" in
  Alcotest.(check (option int)) "arity mismatch line" (Some 2) e.Circuit.Bench_io.line;
  let e = bench_error "INPUT(a)\nz = NOT(a)\nz = NOT(a)\nOUTPUT(z)\n" in
  Alcotest.(check (option int)) "duplicate net line" (Some 3) e.Circuit.Bench_io.line;
  let e = bench_error "INPUT(a)\nz = AND(a, ghost)\nOUTPUT(z)\n" in
  Alcotest.(check (option int)) "dangling fanin line" (Some 2) e.Circuit.Bench_io.line;
  Alcotest.(check bool) "dangling fanin names signal" true
    (let m = e.Circuit.Bench_io.message in
     String.length m >= 5);
  let e = bench_error "INPUT(a)\nOUTPUT(ghost)\n" in
  Alcotest.(check (option int)) "dangling output line" (Some 2) e.Circuit.Bench_io.line;
  let e = bench_error "INPUT(a)\nx = AND(a, y)\ny = AND(a, x)\nOUTPUT(x)\n" in
  Alcotest.(check bool) "cycle is positioned" true (e.Circuit.Bench_io.line <> None);
  (* the exception-style entry point folds the position into the message *)
  Alcotest.(check bool) "parse_string raises positioned Failure" true
    (try
       ignore (Circuit.Bench_io.parse_string ~name:"t" "INPUT(a)\nz = FOO(a)\n");
       false
     with Failure m -> String.length m > 12 && String.sub m 0 12 = ".bench line ");
  (* well-formed input still parses *)
  match Circuit.Bench_io.parse_result ~name:"t" "INPUT(a)\nz = NOT(a)\nOUTPUT(z)\n" with
  | Ok net -> Alcotest.(check int) "good input parses" 1 (Circuit.Netlist.n_gates net)
  | Error e -> Alcotest.fail e.Circuit.Bench_io.message

let test_bench_error_maps_to_invalid_request () =
  let t = Server.Service.create () in
  (* parse errors are never memoized: a resend gets the same positioned error *)
  for _ = 1 to 2 do
    let response =
      dispatch t
        "{\"v\":1,\"op\":\"analyze\",\"circuit\":{\"bench\":\"INPUT(a)\\nz = FOO(a)\\nOUTPUT(z)\"}}"
    in
    Alcotest.(check (option string)) "invalid_request" (Some "invalid_request")
      (response_code response);
    Alcotest.(check (option int)) "line detail on the wire" (Some 2)
      (Server.Protocol.error_detail_int response "line")
  done

(* --- Admission control, shedding and degraded mode --- *)

let test_shed_and_degraded_mode () =
  let t = Server.Service.create () in
  let analyze = "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\"}" in
  ignore (expect_ok t analyze);
  (* every admission from here on sheds *)
  Server.Service.set_faults t (faults "admission=shed");
  (* degraded mode: the cached answer is still served... *)
  let r = expect_ok t analyze in
  Alcotest.(check bool) "cache hit bypasses admission" true
    (Server.Json.to_bool (Server.Json.member "cached" r));
  (* ...as are health and stats... *)
  ignore (expect_ok t "{\"v\":1,\"op\":\"health\"}");
  ignore (expect_ok t "{\"v\":1,\"op\":\"stats\"}");
  (* ...but new compute is refused with a retry hint *)
  let shed = dispatch t "{\"v\":1,\"op\":\"ivc_search\",\"circuit\":\"c17\",\"seed\":3}" in
  Alcotest.(check (option string)) "overloaded" (Some "overloaded") (response_code shed);
  Alcotest.(check (option int)) "retry_after_ms hint" (Some 250)
    (Server.Protocol.error_detail_int shed "retry_after_ms");
  let stats = expect_ok t "{\"v\":1,\"op\":\"stats\"}" in
  Alcotest.(check bool) "shed counted" true
    (Server.Json.(to_int (member "shed" (member "counters" stats))) >= 1);
  Alcotest.(check int) "nothing left pending" 0 (Server.Service.pending t)

let test_retry_defeats_transient_shed () =
  let t = Server.Service.create () in
  Server.Service.set_faults t (faults "admission=shed@2");
  let policy = { Server.Retry.retries = 5; base_ms = 1; cap_ms = 2000 } in
  let rng = Physics.Rng.create ~seed:11 in
  let line = "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\"}" in
  let attempts = ref 0 in
  (* the client loop: retry retryable codes with backoff, honoring the
     server's retry_after hint *)
  let rec go attempt =
    incr attempts;
    let response = dispatch t line in
    match Server.Protocol.response_result response with
    | Ok r -> r
    | Error (code, m) ->
      if not (Server.Protocol.retryable_code_string code) then Alcotest.fail (code ^ ": " ^ m);
      if attempt >= policy.Server.Retry.retries then Alcotest.fail "retries exhausted";
      let retry_after_ms = Server.Protocol.error_detail_int response "retry_after_ms" in
      let ms = Server.Retry.backoff_ms policy ~attempt ?retry_after_ms ~rng () in
      Alcotest.(check bool) "hint honored" true (ms >= 125);
      (* don't actually sleep 125+ ms per attempt in the test suite *)
      Unix.sleepf 0.001;
      go (attempt + 1)
  in
  let r = go 0 in
  Alcotest.(check int) "two sheds then success" 3 !attempts;
  Alcotest.(check bool) "fresh compute after faults drained" false
    (Server.Json.to_bool (Server.Json.member "cached" r))

(* --- Injected worker failures --- *)

let test_compute_fail_is_structured_and_transient () =
  let t = Server.Service.create () in
  Server.Service.set_faults t (faults "compute=fail@1");
  let line = "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\"}" in
  let first = dispatch t line in
  Alcotest.(check (option string)) "injected failure is structured" (Some "internal_error")
    (response_code first);
  (* nothing was cached for the failed attempt; the retry recomputes and
     matches a direct platform run bit-exactly *)
  let r = expect_ok t line in
  Alcotest.(check bool) "retry recomputes" false
    (Server.Json.to_bool (Server.Json.member "cached" r));
  let cfg = Server.Protocol.platform_config Server.Protocol.default_flow_spec in
  let direct =
    Flow.Platform.analyze cfg
      (Flow.Platform.prepare cfg (Circuit.Generators.c17 ()))
      ~standby:Aging.Circuit_aging.Standby_all_stressed
  in
  let served = Server.Protocol.analysis_of_json (Server.Json.member "analysis" r) in
  Alcotest.(check bool) "post-fault result bit-exact" true (served = direct)

let test_batch_job_failures_are_isolated () =
  let t = Server.Service.create () in
  Server.Service.set_faults t (faults "compute=fail@1");
  let line =
    "{\"v\":1,\"op\":\"batch\",\"jobs\":[{\"op\":\"analyze\",\"circuit\":\"c17\"},{\"op\":\"analyze\",\"circuit\":\"c17\",\"standby\":\"best\"}]}"
  in
  let result = expect_ok t line in
  match Server.Json.member "results" result with
  | Server.Json.List results ->
    let kinds =
      List.map (fun r -> Server.Json.to_string_exn (Server.Json.member "kind" r)) results
    in
    Alcotest.(check int) "both jobs answered" 2 (List.length results);
    Alcotest.(check bool) "exactly one injected failure" true
      (List.length (List.filter (fun k -> k = "error") kinds) = 1);
    Alcotest.(check bool) "the sibling survived" true (List.mem "analysis" kinds)
  | _ -> Alcotest.fail "expected a results list"

(* --- Faults plan parsing --- *)

let test_faults_spec_parsing () =
  List.iter
    (fun spec ->
      Alcotest.(check bool) ("accepts " ^ spec) true
        (match Server.Faults.parse spec with Ok _ -> true | Error _ -> false))
    [
      "compute=delay:50";
      "admission=shed@2";
      "write=truncate@1,compute=fail";
      " compute = fail , write=delay:10 ";
      "";
    ];
  List.iter
    (fun spec ->
      Alcotest.(check bool) ("rejects " ^ spec) true
        (match Server.Faults.parse spec with Error _ -> true | Ok _ -> false))
    [ "compute"; "kitchen=fail"; "compute=explode"; "compute=delay:xx"; "compute=fail@0" ];
  (* Each site takes delay:MS and its own failure action only; a
     refusal names the site. *)
  List.iter
    (fun (spec, site) ->
      Alcotest.(check bool) ("rejects " ^ spec ^ ", naming " ^ site) true
        (match Server.Faults.parse spec with
        | Error m -> (
          try ignore (Str.search_forward (Str.regexp_string site) m 0); true
          with Not_found -> false)
        | Ok _ -> false))
    [
      ("write=shed", "write");
      ("compute=truncate", "compute");
      ("admission=fail", "admission");
      ("connect=shed", "connect");
      ("probe=truncate", "probe");
      ("handoff=shed", "handoff");
    ];
  List.iter
    (fun spec ->
      Alcotest.(check bool) ("accepts " ^ spec) true
        (match Server.Faults.parse spec with Ok _ -> true | Error _ -> false))
    [ "connect=fail@1"; "probe=fail"; "handoff=fail"; "write=delay:5,handoff=delay:5" ];
  let f = faults "compute=fail@2" in
  Alcotest.(check (list bool)) "armed twice, then disarmed" [ true; true; false ]
    (List.init 3 (fun _ -> Server.Faults.fire f ~site:"compute"));
  Alcotest.(check bool) "other sites unaffected" false (Server.Faults.fire f ~site:"write");
  Alcotest.(check bool) "a delay is no failure" false
    (Server.Faults.fire (faults "compute=delay:1") ~site:"compute")

(* --- Byte-bounded cache --- *)

let test_cache_byte_budget () =
  let c = Server.Cache.create ~capacity:100 ~max_bytes:100 ~weight:String.length () in
  Server.Cache.add c "a" (String.make 40 'a');
  Server.Cache.add c "b" (String.make 40 'b');
  Alcotest.(check int) "bytes accounted" 80 (Server.Cache.bytes_used c);
  Server.Cache.add c "c" (String.make 40 'c');
  (* 120 bytes > 100: the LRU entry "a" must go *)
  Alcotest.(check int) "evicted down to budget" 80 (Server.Cache.bytes_used c);
  Alcotest.(check (option string)) "lru evicted" None (Server.Cache.find c "a");
  Alcotest.(check bool) "recent kept" true (Server.Cache.find c "c" <> None);
  let s = Server.Cache.stats c in
  Alcotest.(check int) "eviction counted" 1 s.Server.Cache.evictions;
  Alcotest.(check (option int)) "budget reported" (Some 100) s.Server.Cache.max_bytes;
  Alcotest.(check int) "bytes reported" 80 s.Server.Cache.bytes_used;
  (* one entry heavier than the whole budget still caches (approximate
     budget, never an empty cache) *)
  Server.Cache.add c "huge" (String.make 300 'h');
  Alcotest.(check int) "kept the oversized entry" 1 (Server.Cache.length c);
  Alcotest.(check int) "its weight is visible" 300 (Server.Cache.bytes_used c);
  (* replacing a value re-weighs it *)
  Server.Cache.clear c;
  Server.Cache.add c "k" (String.make 10 'x');
  Server.Cache.add c "k" (String.make 90 'x');
  Alcotest.(check int) "replacement re-weighed" 90 (Server.Cache.bytes_used c)

let test_service_reports_cache_bytes () =
  let t = Server.Service.create () in
  ignore (expect_ok t "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\"}");
  let stats = expect_ok t "{\"v\":1,\"op\":\"stats\"}" in
  let results = Server.Json.(member "results" (member "cache" stats)) in
  Alcotest.(check bool) "bytes_used > 0 after one result" true
    (Server.Json.(to_int (member "bytes_used" results)) > 0);
  Alcotest.(check bool) "max_bytes advertised" true
    (Server.Json.(to_int (member "max_bytes" results)) > 0)

(* --- Retry schedule --- *)

let test_backoff_deterministic_and_bounded () =
  let policy = { Server.Retry.retries = 6; base_ms = 50; cap_ms = 2000 } in
  let schedule seed =
    let rng = Physics.Rng.create ~seed in
    List.init 6 (fun attempt -> Server.Retry.backoff_ms policy ~attempt ~rng ())
  in
  Alcotest.(check (list int)) "same seed, same schedule" (schedule 42) (schedule 42);
  Alcotest.(check bool) "different seeds diverge" true (schedule 42 <> schedule 43);
  List.iteri
    (fun attempt ms ->
      let target = min policy.Server.Retry.cap_ms (policy.Server.Retry.base_ms * (1 lsl attempt)) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [target/2, target]" attempt)
        true
        (ms >= target / 2 && ms <= target))
    (schedule 7);
  (* the server's hint raises the floor *)
  let rng = Physics.Rng.create ~seed:1 in
  let ms = Server.Retry.backoff_ms policy ~attempt:0 ~retry_after_ms:800 ~rng () in
  Alcotest.(check bool) "retry_after_ms honored" true (ms >= 400 && ms <= 800);
  (* but never past the cap *)
  let ms = Server.Retry.backoff_ms policy ~attempt:0 ~retry_after_ms:60000 ~rng () in
  Alcotest.(check bool) "hint capped" true (ms <= policy.Server.Retry.cap_ms)

(* --- Socket-level chaos --- *)

type role = Serve | Route

let serve_until_ready fe path =
  let ready = Mutex.create () in
  let ready_cond = Condition.create () in
  let is_ready = ref false in
  let on_ready () =
    Mutex.lock ready;
    is_ready := true;
    Condition.signal ready_cond;
    Mutex.unlock ready
  in
  let thread =
    Thread.create (fun () -> Server.Frontend.serve fe (Server.Netline.Unix_socket path) ~on_ready ()) ()
  in
  Mutex.lock ready;
  while not !is_ready do
    Condition.wait ready_cond ready
  done;
  Mutex.unlock ready;
  thread

let fresh_socket () =
  let path = Filename.temp_file "nbti_chaos" ".sock" in
  Sys.remove path;
  path

(* Runs [f backend path] against a served socket: the service itself
   ([Serve]), or a router over it ([Route]). Limits that shape the front
   end (the line bound) and the fault plan go to whichever process owns
   the socket; the backend gets [limits] either way. *)
let with_server ?(role = Serve) ?limits ?faults:fault_plan f =
  let t = Server.Service.create ?limits () in
  let path = fresh_socket () in
  let thread = serve_until_ready t path in
  let stop_backend () =
    Server.Frontend.stop t;
    Thread.join thread
  in
  match role with
  | Serve ->
    Option.iter (fun p -> Server.Service.set_faults t (faults p)) fault_plan;
    Fun.protect ~finally:stop_backend (fun () -> f t path)
  | Route ->
    let config =
      match limits with
      | None -> Fleet.Router.default_config
      | Some l ->
        {
          Fleet.Router.default_config with
          Fleet.Router.max_line_bytes = l.Server.Service.max_line_bytes;
        }
    in
    let faults = Option.map faults fault_plan in
    let router = Fleet.Router.create ~config ?faults [ Server.Netline.Unix_socket path ] in
    let router_path = fresh_socket () in
    let router_thread = serve_until_ready router router_path in
    Fun.protect
      ~finally:(fun () ->
        Server.Frontend.stop router;
        Thread.join router_thread;
        stop_backend ())
      (fun () -> f t router_path)

let check_limits_routed ~op () =
  with_server (fun _t path ->
      let router = Fleet.Router.create [ Server.Netline.Unix_socket path ] in
      ignore (check_field_limits "routed" (Fleet.Router.handle_line router) ~op))

(* --- Whole requests ---

   Requests drawn whole from the field table: analyze, ivc_search,
   sleep_sizing and batches of them. Calibrate is left out and every
   draw carries a bounded [timeout_ms], so none runs long. An [ok: true]
   answer never holds a [null], served directly or, for every
   [routed_every]-th draw, through a router over two backends. *)

let whole_request_seeds = [ 1; 2; 3 ]
let draws_per_seed = 80
let routed_every = 6

let gen_timed_request =
  Request_gen.gen_request_over
    ~ops:(List.filter (( <> ) "calibrate") Request_gen.ops_with_members)
    ~timeout_ms:(QCheck.Gen.return (Some 3000))

let test_whole_requests_hold_no_null () =
  let backends =
    List.init 2 (fun _ ->
        let t = Server.Service.create () in
        let path = fresh_socket () in
        (t, path, serve_until_ready t path))
  in
  let stop () =
    List.iter
      (fun (t, _, thread) ->
        Server.Frontend.stop t;
        Thread.join thread)
      backends
  in
  Fun.protect ~finally:stop (fun () ->
      let router =
        Fleet.Router.create (List.map (fun (_, path, _) -> Server.Netline.Unix_socket path) backends)
      in
      let t = Server.Service.create () in
      List.iter
        (fun seed ->
          let rand = Random.State.make [| seed |] in
          for draw = 1 to draws_per_seed do
            let line = Server.Json.to_string (QCheck.Gen.generate1 ~rand gen_timed_request) in
            let check name handle =
              let response = Server.Json.of_string (handle line) in
              if response_code response = None && has_null response then
                Alcotest.failf "seed %d draw %d (%s): an ok answer holds null: %s" seed draw name
                  line
            in
            check "direct" (Server.Service.handle_line t);
            if draw mod routed_every = 0 then check "routed" (Fleet.Router.handle_line router)
          done)
        whole_request_seeds)

(* A job that raises after decode fails alone, whether the batch runs on
   the service or is split by the router; both answers are the same
   bytes. The first job was computed before the compute fault was armed,
   so it is a cache hit; the second raises Faults.Injected. *)
let test_batch_isolates_raising_jobs () =
  let line =
    {|{"v":1,"op":"batch","jobs":[{"op":"analyze","circuit":"c17"},{"op":"analyze","circuit":"c17","standby":"best"}]}|}
  in
  let arm t =
    ignore (Server.Service.handle_line t {|{"v":1,"op":"analyze","circuit":"c17"}|});
    Server.Service.set_faults t (faults "compute=fail")
  in
  let t = Server.Service.create () in
  arm t;
  let direct = Server.Service.handle_line t line in
  (match Server.Protocol.response_result (Server.Json.of_string direct) with
  | Ok result -> (
    match Server.Json.member "results" result with
    | Server.Json.List [ ok; failed ] ->
      Alcotest.(check string) "sibling answered" "analysis"
        Server.Json.(to_string_exn (member "kind" ok));
      Alcotest.(check string) "raising job is an error entry" "internal_error"
        Server.Json.(to_string_exn (member "code" failed))
    | _ -> Alcotest.fail "expected two batch results")
  | Error (code, m) -> Alcotest.fail ("the batch itself failed: " ^ code ^ ": " ^ m));
  with_server (fun t path ->
      arm t;
      let router = Fleet.Router.create [ Server.Netline.Unix_socket path ] in
      Alcotest.(check string) "routed batch = direct batch" direct
        (Fleet.Router.handle_line router line))

(* --- Netlists with nothing to time ---

   The fresh critical delay is 0 exactly when no primary output is a
   gate, and every timing op then failed an assertion: internal_error.
   Both uploads (outputs that are inputs; a dangling gate beside them)
   must be refused as invalid_request naming the problem, alone and as a
   batch entry beside a job that answers. *)

let untimeable_benches =
  [ "INPUT(a)\nOUTPUT(a)\n"; "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nc = NAND(a, b)\n" ]

let check_untimeable name handle =
  let open Server.Json in
  let job op text = [ ("op", String op); ("circuit", Assoc [ ("bench", String text) ]) ] in
  let check_error what error =
    Alcotest.(check string) (what ^ " code") "invalid_request" (to_string_exn (member "code" error));
    let message = to_string_exn (member "message" error) in
    Alcotest.(check bool) (what ^ " names the problem: " ^ message) true
      (String.length message >= 18 && String.sub message 0 14 = "bench netlist:")
  in
  List.iter
    (fun text ->
      List.iter
        (fun op ->
          let what = Printf.sprintf "%s %s on %S" name op text in
          let response = of_string (handle (to_string (Assoc (("v", Int 1) :: job op text)))) in
          Alcotest.(check bool) (what ^ " refused") false (to_bool (member "ok" response));
          check_error what (member "error" response))
        [ "analyze"; "ivc_search"; "sleep_sizing" ];
      let what = Printf.sprintf "%s batch entry on %S" name text in
      let batch =
        Assoc
          [
            ("v", Int 1);
            ("op", String "batch");
            ("jobs", List [ Assoc (job "analyze" text); Assoc [ ("op", String "analyze"); ("circuit", String "c17") ] ]);
          ]
      in
      match Server.Protocol.response_result (of_string (handle (to_string batch))) with
      | Ok result -> (
        match member "results" result with
        | List [ refused; answered ] ->
          check_error what refused;
          Alcotest.(check string) (what ^ ": sibling answered") "analysis"
            (to_string_exn (member "kind" answered))
        | _ -> Alcotest.fail (what ^ ": expected two batch results"))
      | Error (code, m) -> Alcotest.fail (what ^ ": the batch itself failed: " ^ code ^ ": " ^ m))
    untimeable_benches

let test_untimeable_direct () =
  let t = Server.Service.create () in
  check_untimeable "direct" (Server.Service.handle_line t)

let test_untimeable_routed () =
  with_server (fun _t path ->
      let router = Fleet.Router.create [ Server.Netline.Unix_socket path ] in
      check_untimeable "routed" (Fleet.Router.handle_line router))

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* A number literal whose value is not finite is a parse error at its
   first byte. It used to decode as infinity: "years": 1e999 answered
   ok with null delays and was cached, and "ras": [1e999, 1] answered
   internal_error. Now none of these reaches a cache, on either role. *)
let overflowing_lines =
  let zeros = String.make 400 '0' in
  List.map
    (fun (prefix, literal, suffix) -> (prefix ^ literal ^ suffix, String.length prefix))
    [
      ({|{"v":1,"op":"analyze","circuit":"c17","config":{"years":|}, "1e999", "}}");
      ({|{"v":1,"op":"analyze","circuit":"c17","config":{"ras":[|}, "1e999", ",1]}}");
      ({|{"v":1,"op":"analyze","circuit":"c17","config":{"t_standby":|}, "-1e999", "}}");
      ({|{"v":1,"op":"analyze","circuit":"c17","config":{"years":|}, "1" ^ zeros, "}}");
      ({|{"v":1,"op":"ivc_search","circuit":"c17","tolerance":|}, "1e999", "}");
      ({|{"v":1,"op":"sleep_sizing","circuit":"c17","vth_st":|}, "-1e999", "}");
      ( {|{"v":1,"op":"batch","jobs":[{"op":"analyze","circuit":"c17","config":{"years":|},
        "1E+999",
        "}}]}" );
    ]

let results_size t =
  let stats = expect_ok t "{\"v\":1,\"op\":\"stats\"}" in
  Server.Json.(to_int (member "size" (member "results" (member "cache" stats))))

let test_overflowing_numbers role () =
  with_server ~role (fun t path ->
      let fd, ic, oc = connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          List.iter
            (fun (line, offset) ->
              for _ = 1 to 2 do
                send oc line;
                let response = Server.Json.of_string (input_line ic) in
                Alcotest.(check (option string)) ("code for " ^ line) (Some "parse_error")
                  (response_code response);
                Alcotest.(check string) ("message for " ^ line)
                  (Printf.sprintf "at byte %d: number out of range" offset)
                  Server.Json.(to_string_exn (member "message" (member "error" response)))
              done)
            overflowing_lines;
          Alcotest.(check int) "nothing cached" 0 (results_size t)))

let test_socket_oversized_line role () =
  let limits = { Server.Service.default_limits with Server.Service.max_line_bytes = 1024 } in
  with_server ~role ~limits (fun _t path ->
      let fd, ic, oc = connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          send oc (String.make 5000 'x');
          let response = Server.Json.of_string (input_line ic) in
          Alcotest.(check (option string)) "oversized line refused" (Some "invalid_request")
            (response_code response);
          Alcotest.(check (option int)) "limit advertised" (Some 1024)
            (Server.Protocol.error_detail_int response "max_line_bytes");
          (* framing survived: the connection still answers *)
          send oc "{\"v\":1,\"op\":\"health\"}";
          match Server.Protocol.response_result (Server.Json.of_string (input_line ic)) with
          | Ok _ -> ()
          | Error (c, m) -> Alcotest.fail (c ^ ": " ^ m)))

let test_socket_midline_eof role () =
  with_server ~role (fun _t path ->
      let fd, ic, oc = connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* half-close: the request line ends in EOF, not newline *)
          output_string oc "{\"v\":1,\"op\":";
          flush oc;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let response = Server.Json.of_string (input_line ic) in
          Alcotest.(check (option string)) "mid-line EOF is a parse error" (Some "parse_error")
            (response_code response);
          Alcotest.(check bool) "then the server closes cleanly" true
            (try
               ignore (input_line ic);
               false
             with End_of_file -> true)))

let test_socket_truncated_write_then_retry role () =
  with_server ~role ~faults:"write=truncate@1" (fun _t path ->
      let line = "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\"}" in
      let fd, ic, oc = connect path in
      let first =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            send oc line;
            match input_line ic with
            | partial -> ( try Ok (Server.Json.of_string partial) with Server.Json.Parse_error _ -> Error partial)
            | exception End_of_file -> Error "")
      in
      (match first with
      | Ok _ -> Alcotest.fail "expected a truncated response"
      | Error partial ->
        Alcotest.(check bool) "response was cut short" true
          (String.length partial < String.length line + 400));
      (* a retrying client reconnects and asks again; the fault budget is
         spent, and the answer comes from the result cache *)
      let fd2, ic2, oc2 = connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          send oc2 line;
          match Server.Protocol.response_result (Server.Json.of_string (input_line ic2)) with
          | Ok r ->
            Alcotest.(check bool) "retry served from cache" true
              (Server.Json.to_bool (Server.Json.member "cached" r))
          | Error (c, m) -> Alcotest.fail (c ^ ": " ^ m)))

let test_socket_vanished_peer_survival role () =
  with_server ~role ~faults:"write=delay:150@1" (fun t path ->
      (* the peer sends a request and vanishes before the (delayed)
         response is written: the write must fail EPIPE-style on that
         connection only *)
      let fd, _ic, oc = connect path in
      send oc "{\"v\":1,\"op\":\"health\"}";
      Unix.close fd;
      Unix.sleepf 0.4;
      (* the daemon survived and still answers *)
      let fd2, ic2, oc2 = connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          send oc2 "{\"v\":1,\"op\":\"stats\"}";
          match Server.Protocol.response_result (Server.Json.of_string (input_line ic2)) with
          | Ok stats ->
            Alcotest.(check bool) "disconnect counted" true
              (Server.Json.(to_int (member "disconnects" (member "counters" stats))) >= 1
              || Server.Json.(to_int (member "truncated_writes" (member "counters" stats))) >= 0)
          | Error (c, m) -> Alcotest.fail (c ^ ": " ^ m));
      Alcotest.(check int) "nothing left pending" 0 (Server.Service.pending t))

(* The reader keeps bytes past a line for the next request: two
   requests in one write are answered in order, and so is a request
   that arrives in three writes. *)
let test_socket_pipelined role () =
  with_server ~role (fun _t path ->
      let fd, ic, _oc = connect path in
      (* a lost request fails the test instead of hanging it *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let write s = ignore (Unix.write_substring fd s 0 (String.length s)) in
          let answer_id () =
            let response = Server.Json.of_string (input_line ic) in
            (match Server.Protocol.response_result response with
            | Ok _ -> ()
            | Error (c, m) -> Alcotest.fail (c ^ ": " ^ m));
            Server.Json.(to_string_exn (member "id" response))
          in
          write
            ({|{"v":1,"id":"first","op":"analyze","circuit":"c17"}|} ^ "\n"
           ^ {|{"v":1,"id":"second","op":"health"}|} ^ "\n");
          Alcotest.(check string) "first answer" "first" (answer_id ());
          Alcotest.(check string) "second answer" "second" (answer_id ());
          List.iter
            (fun piece ->
              write piece;
              Unix.sleepf 0.02)
            [ {|{"v":1,"id":"split","op":"ana|}; {|lyze","circuit":|}; "\"c432\"}\n" ];
          Alcotest.(check string) "split request answered" "split" (answer_id ())))

let () =
  Alcotest.run "robustness"
    [
      ( "budget",
        [
          Alcotest.test_case "basics" `Quick test_budget_basics;
          Alcotest.test_case "pool cancellation" `Quick test_pool_budget_cancels;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "exceeded within 2x budget" `Quick test_deadline_exceeded_within_2x;
          Alcotest.test_case "server default timeout" `Quick test_default_timeout_applies;
        ] );
      ( "limits",
        [
          Alcotest.test_case "protocol error paths" `Quick test_protocol_error_paths;
          Alcotest.test_case "gate limit" `Quick test_gate_limit;
          Alcotest.test_case "rejected circuits not memoized" `Quick
            test_rejected_circuits_not_memoized;
          Alcotest.test_case "ivc_search limits, direct" `Quick (check_limits_direct ~op:"ivc_search");
          Alcotest.test_case "ivc_search limits, routed" `Quick (check_limits_routed ~op:"ivc_search");
          Alcotest.test_case "sleep_sizing vth_st, direct" `Quick
            (check_limits_direct ~op:"sleep_sizing");
          Alcotest.test_case "sleep_sizing vth_st, routed" `Quick
            (check_limits_routed ~op:"sleep_sizing");
          Alcotest.test_case "analyze config limits, direct" `Quick (check_limits_direct ~op:"analyze");
          Alcotest.test_case "analyze config limits, routed" `Quick (check_limits_routed ~op:"analyze");
          Alcotest.test_case "calibrate limits, direct" `Quick (check_limits_direct ~op:"calibrate");
          Alcotest.test_case "calibrate limits, routed" `Quick (check_limits_routed ~op:"calibrate");
          Alcotest.test_case "overflowing numbers, direct" `Quick (test_overflowing_numbers Serve);
          Alcotest.test_case "overflowing numbers, routed" `Quick (test_overflowing_numbers Route);
          Alcotest.test_case "whole requests hold no null, direct and routed" `Quick
            test_whole_requests_hold_no_null;
        ] );
      ( "bench",
        [
          Alcotest.test_case "positioned errors" `Quick test_bench_positioned_errors;
          Alcotest.test_case "maps to invalid_request" `Quick test_bench_error_maps_to_invalid_request;
          Alcotest.test_case "no gate on any output, direct" `Quick test_untimeable_direct;
          Alcotest.test_case "no gate on any output, routed" `Quick test_untimeable_routed;
        ] );
      ( "admission",
        [
          Alcotest.test_case "shed and degraded mode" `Quick test_shed_and_degraded_mode;
          Alcotest.test_case "retry defeats transient shed" `Quick test_retry_defeats_transient_shed;
        ] );
      ( "faults",
        [
          Alcotest.test_case "spec parsing" `Quick test_faults_spec_parsing;
          Alcotest.test_case "compute failure is transient" `Quick
            test_compute_fail_is_structured_and_transient;
          Alcotest.test_case "batch failures isolated" `Quick test_batch_job_failures_are_isolated;
          Alcotest.test_case "batch isolates a raising job, direct = routed" `Quick
            test_batch_isolates_raising_jobs;
        ] );
      ( "cache",
        [
          Alcotest.test_case "byte budget" `Quick test_cache_byte_budget;
          Alcotest.test_case "bytes in stats" `Quick test_service_reports_cache_bytes;
        ] );
      ("retry", [ Alcotest.test_case "deterministic backoff" `Quick test_backoff_deterministic_and_bounded ]);
      (* the same cases against a serve socket and a route socket: one
         front-end, one behaviour *)
      ( "socket chaos",
        List.concat_map
          (fun (role, suffix) ->
            [
              Alcotest.test_case ("oversized line" ^ suffix) `Quick
                (test_socket_oversized_line role);
              Alcotest.test_case ("mid-line EOF" ^ suffix) `Quick (test_socket_midline_eof role);
              Alcotest.test_case ("truncated write then retry" ^ suffix) `Quick
                (test_socket_truncated_write_then_retry role);
              Alcotest.test_case ("vanished peer" ^ suffix) `Quick
                (test_socket_vanished_peer_survival role);
              Alcotest.test_case ("pipelined and split requests" ^ suffix) `Quick
                (test_socket_pipelined role);
            ])
          [ (Serve, ""); (Route, ", routed") ] );
    ]
