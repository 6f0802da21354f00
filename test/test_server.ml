(* Tests for the aging-analysis service: JSON codec, wire protocol,
   LRU cache, metrics, in-process dispatch, and the socket loop. *)

(* --- Json --- *)

let test_json_roundtrip () =
  let samples =
    [
      "null";
      "true";
      "false";
      "0";
      "-17";
      "[1,2,3]";
      "{}";
      "[]";
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"x\"}}";
    ]
  in
  List.iter
    (fun s -> Alcotest.(check string) s s (Server.Json.to_string (Server.Json.of_string s)))
    samples

let test_json_float_exact () =
  (* floats must round-trip bit-exactly: the cache-correctness tests
     below depend on it *)
  let values = [ 1.4640018001404625e-11; 0.1; 1.0 /. 3.0; 6.02e23; -0.0; 1e-300; 4.5 ] in
  List.iter
    (fun f ->
      let json = Server.Json.to_string (Server.Json.Float f) in
      match Server.Json.of_string json with
      | Server.Json.Float f' ->
        Alcotest.(check bool) (json ^ " exact") true (Int64.bits_of_float f = Int64.bits_of_float f')
      | Server.Json.Int i -> Alcotest.(check (float 0.0)) json f (float_of_int i)
      | _ -> Alcotest.fail "not a number")
    values

let test_json_string_escapes () =
  let s = "line1\nline2\t\"quoted\" back\\slash \x01" in
  let json = Server.Json.to_string (Server.Json.String s) in
  Alcotest.(check bool) "single line" true (not (String.contains json '\n'));
  (match Server.Json.of_string json with
  | Server.Json.String s' -> Alcotest.(check string) "escape roundtrip" s s'
  | _ -> Alcotest.fail "not a string");
  (* unicode escapes decode to UTF-8 *)
  match Server.Json.of_string "\"\\u00e9\\ud83d\\ude00\"" with
  | Server.Json.String s -> Alcotest.(check string) "utf8" "\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "not a string"

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}"; "nan" ] in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try
           ignore (Server.Json.of_string s);
           false
         with Server.Json.Parse_error _ -> true))
    bad

let test_json_accessors () =
  let v = Server.Json.of_string "{\"i\":3,\"f\":2.5,\"s\":\"x\",\"b\":true,\"l\":[1]}" in
  Alcotest.(check int) "int" 3 Server.Json.(to_int (member "i" v));
  Alcotest.(check (float 0.0)) "float" 2.5 Server.Json.(to_float (member "f" v));
  Alcotest.(check (float 0.0)) "int as float" 3.0 Server.Json.(to_float (member "i" v));
  Alcotest.(check string) "string" "x" Server.Json.(to_string_exn (member "s" v));
  Alcotest.(check bool) "bool" true Server.Json.(to_bool (member "b" v));
  Alcotest.(check int) "list" 1 (List.length Server.Json.(to_list (member "l" v)));
  Alcotest.(check bool) "absent member is Null" true (Server.Json.member "zz" v = Server.Json.Null);
  Alcotest.(check bool) "type error raised" true
    (try
       ignore Server.Json.(to_int (member "s" v));
       false
     with Server.Json.Type_error _ -> true)

(* --- Cache --- *)

let test_cache_lru () =
  let c = Server.Cache.create ~capacity:2 () in
  Server.Cache.add c "a" 1;
  Server.Cache.add c "b" 2;
  (* touch a so that b is the LRU entry *)
  Alcotest.(check (option int)) "a hit" (Some 1) (Server.Cache.find c "a");
  Server.Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Server.Cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Server.Cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Server.Cache.find c "c");
  let s = Server.Cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Server.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Server.Cache.size;
  Alcotest.(check int) "hits" 3 s.Server.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Server.Cache.misses

let test_cache_find_or_add () =
  let c = Server.Cache.create ~capacity:4 () in
  let computes = ref 0 in
  let compute () =
    incr computes;
    !computes
  in
  let v1, hit1 = Server.Cache.find_or_add c "k" compute in
  let v2, hit2 = Server.Cache.find_or_add c "k" compute in
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check bool) "second is a hit" true hit2;
  Alcotest.(check int) "computed once" 1 !computes;
  Alcotest.(check int) "same value" v1 v2;
  Server.Cache.clear c;
  let _, hit3 = Server.Cache.find_or_add c "k" compute in
  Alcotest.(check bool) "cleared" false hit3

let test_cache_replace_and_bounds () =
  Alcotest.(check bool) "capacity >= 1 enforced" true
    (try
       ignore (Server.Cache.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true);
  let c = Server.Cache.create ~capacity:3 () in
  Server.Cache.add c "k" 1;
  Server.Cache.add c "k" 2;
  Alcotest.(check (option int)) "replaced" (Some 2) (Server.Cache.find c "k");
  Alcotest.(check int) "no duplicate entry" 1 (Server.Cache.length c);
  for i = 0 to 99 do
    Server.Cache.add c (string_of_int i) i
  done;
  Alcotest.(check bool) "bounded" true (Server.Cache.length c <= 3)

(* --- Metrics --- *)

let test_metrics () =
  let m = Server.Metrics.create () in
  Server.Metrics.record m ~endpoint:"analyze" ~ok:true ~elapsed_s:0.002;
  Server.Metrics.record m ~endpoint:"analyze" ~ok:false ~elapsed_s:0.5;
  Server.Metrics.record m ~endpoint:"health" ~ok:true ~elapsed_s:1e-5;
  match Server.Metrics.snapshot m with
  | [ a; h ] ->
    Alcotest.(check string) "sorted" "analyze" a.Server.Metrics.endpoint;
    Alcotest.(check string) "sorted2" "health" h.Server.Metrics.endpoint;
    Alcotest.(check int) "requests" 2 a.Server.Metrics.requests;
    Alcotest.(check int) "errors" 1 a.Server.Metrics.errors;
    Alcotest.(check (float 1e-9)) "mean" 0.251 (Server.Metrics.mean_s a);
    Alcotest.(check (float 1e-9)) "max" 0.5 a.Server.Metrics.max_s;
    Alcotest.(check bool) "p50 sane" true
      (Server.Metrics.quantile_s a 0.5 >= 0.002 && Server.Metrics.quantile_s a 0.5 <= 0.01);
    Alcotest.(check (float 1e-9)) "p99 caps at max" 0.5 (Server.Metrics.quantile_s a 0.99);
    let total_counts = Array.fold_left ( + ) 0 a.Server.Metrics.histogram.Server.Metrics.counts in
    Alcotest.(check int) "histogram complete" 2 total_counts
  | l -> Alcotest.fail (Printf.sprintf "expected 2 endpoints, got %d" (List.length l))

let test_metrics_time () =
  let m = Server.Metrics.create () in
  let v = Server.Metrics.time m ~endpoint:"x" (fun () -> 41 + 1) in
  Alcotest.(check int) "result passed through" 42 v;
  Alcotest.(check bool) "exception recorded and re-raised" true
    (try
       Server.Metrics.time m ~endpoint:"x" (fun () -> failwith "boom")
     with Failure _ -> true);
  match Server.Metrics.snapshot m with
  | [ s ] ->
    Alcotest.(check int) "two requests" 2 s.Server.Metrics.requests;
    Alcotest.(check int) "one error" 1 s.Server.Metrics.errors
  | _ -> Alcotest.fail "one endpoint expected"

(* --- Protocol --- *)

let test_protocol_roundtrip () =
  let open Server.Protocol in
  let jobs =
    [
      Analyze { circuit = Named "c17"; flow = default_flow_spec; standby = Worst };
      Analyze
        {
          circuit = Bench "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n";
          flow = { default_flow_spec with years = 3.0; pbti_scale = Some 0.5 };
          standby = Vector [| true; false |];
        };
      Ivc_search
        { circuit = Named "c432"; flow = default_flow_spec; seed = 9; pool = 32; tolerance = Some 0.1 };
      Sleep_sizing
        {
          circuit = Named "c17";
          flow = default_flow_spec;
          style = Sleep.St_insertion.Header;
          beta = 0.05;
          vth_st = Some 0.3;
          nbti_aware = false;
        };
    ]
  in
  List.iter
    (fun job ->
      let e = { id = Some "req-1"; timeout_ms = None; trace = None; request = Single job } in
      let json = Server.Json.of_string (Server.Json.to_string (json_of_envelope e)) in
      match envelope_of_json json with
      | Ok e' -> Alcotest.(check bool) "roundtrip" true (e = e')
      | Error { message = m; _ } -> Alcotest.fail m)
    jobs;
  let batch = { id = None; timeout_ms = None; trace = None; request = Batch jobs } in
  (match envelope_of_json (json_of_envelope batch) with
  | Ok b -> Alcotest.(check bool) "batch roundtrip" true (b = batch)
  | Error { message = m; _ } -> Alcotest.fail m);
  List.iter
    (fun r ->
      match
        envelope_of_json (json_of_envelope { id = None; timeout_ms = None; trace = None; request = r })
      with
      | Ok e -> Alcotest.(check bool) "introspective roundtrip" true (e.request = r)
      | Error { message = m; _ } -> Alcotest.fail m)
    [ Health; Stats ]

let expect_error code json =
  match Server.Protocol.envelope_of_json json with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error { Server.Protocol.code = c; _ } ->
    Alcotest.(check string) "error code"
      (Server.Protocol.error_code_string code)
      (Server.Protocol.error_code_string c)

let test_protocol_versioning () =
  let open Server.Json in
  expect_error Server.Protocol.Unsupported_version
    (Assoc [ ("op", String "health") ]);
  expect_error Server.Protocol.Unsupported_version
    (Assoc [ ("v", Int 99); ("op", String "health") ]);
  expect_error Server.Protocol.Bad_request (Assoc [ ("v", Int 1) ]);
  (* unknown ops are structured invalid_request (with supported_ops) *)
  expect_error Server.Protocol.Invalid_request
    (Assoc [ ("v", Int 1); ("op", String "teleport") ]);
  expect_error Server.Protocol.Bad_request
    (Assoc [ ("v", Int 1); ("op", String "analyze") ]);
  (* a string outside standby's domain names the field *)
  expect_error Server.Protocol.Invalid_request
    (Assoc [ ("v", Int 1); ("op", String "analyze"); ("circuit", String "c17"); ("standby", String "2x") ]);
  expect_error Server.Protocol.Bad_request (String "not an object")

let test_job_cache_key () =
  let open Server.Protocol in
  let job flow = Analyze { circuit = Named "c17"; flow; standby = Worst } in
  let key flow = job_cache_key (job flow) ~circuit_digest:"d" in
  Alcotest.(check string) "stable" (key default_flow_spec) (key default_flow_spec);
  Alcotest.(check bool) "years changes key" true
    (key default_flow_spec <> key { default_flow_spec with years = 3.0 });
  Alcotest.(check bool) "standby changes key" true
    (job_cache_key (job default_flow_spec) ~circuit_digest:"d"
    <> job_cache_key
         (Analyze { circuit = Named "c17"; flow = default_flow_spec; standby = Best })
         ~circuit_digest:"d");
  Alcotest.(check bool) "digest changes key" true
    (job_cache_key (job default_flow_spec) ~circuit_digest:"d"
    <> job_cache_key (job default_flow_spec) ~circuit_digest:"e");
  (* c499 and c1355 share a digest, as do an upload and the circuit it
     spells; the echoed name tells them apart *)
  let named n = Analyze { circuit = Named n; flow = default_flow_spec; standby = Worst } in
  Alcotest.(check bool) "name changes key" true
    (job_cache_key (named "c499") ~circuit_digest:"d"
    <> job_cache_key (named "c1355") ~circuit_digest:"d");
  Alcotest.(check bool) "inline changes key" true
    (job_cache_key (named "c17") ~circuit_digest:"d"
    <> job_cache_key
         (Analyze { circuit = Bench "x"; flow = default_flow_spec; standby = Worst })
         ~circuit_digest:"d")

(* --- Protocol: the field table against the parent's hand-written codec --- *)

module F = Server.Request_fields

let keys (e : Server.Protocol.envelope) =
  let open Server.Protocol in
  match e.request with
  | Single j -> [ job_cache_key j ~circuit_digest:"d" ]
  | Batch js -> List.map (job_cache_key ~circuit_digest:"d") js
  | Calibrate s -> [ calibrate_cache_key s ]
  | _ -> []

let via_text json = Server.Json.of_string (Server.Json.to_string json)

let prop_table_codec_is_parent_codec =
  QCheck.Test.make ~name:"table codec = parent codec on in-domain requests" ~count:1000
    (QCheck.make ~print:Server.Json.to_string Request_gen.gen_request)
    (fun json ->
      match (Server.Protocol.envelope_of_json json, Oracle.Protocol.envelope_of_json json) with
      | Ok e, Ok parent ->
        e = parent
        && keys e = keys parent
        && Server.Protocol.envelope_of_json (via_text (Server.Protocol.json_of_envelope e)) = Ok e
        (* a parent router or backend on either side of the wire *)
        && Oracle.Protocol.envelope_of_json (via_text (Server.Protocol.json_of_envelope e)) = Ok e
        && Server.Protocol.envelope_of_json (via_text (Oracle.Protocol.json_of_envelope e)) = Ok e
      | Error a, Error b -> a.Server.Protocol.code = b.Server.Protocol.code
      | Ok _, Error b -> QCheck.Test.fail_reportf "only the parent rejects: %s" b.Server.Protocol.message
      | Error a, Ok _ -> QCheck.Test.fail_reportf "only the table rejects: %s" a.Server.Protocol.message)

let test_table_defaults () =
  (* The library's default lifetime is a round 3e8 s, while the wire and
     the CLI have always meant 10 Julian years; every other default
     agrees. *)
  let library = Flow.Platform.default_config () in
  Alcotest.(check (float 0.0)) "library default lifetime" 3.0e8
    library.Flow.Platform.aging.Aging.Circuit_aging.time;
  Alcotest.(check string) "default flow = the platform's default config at 10 years"
    (Flow.Platform.config_fingerprint
       (Flow.Platform.default_config
          ~aging:(Aging.Circuit_aging.default_config ~time:(Physics.Units.years 10.0) ())
          ()))
    (Flow.Platform.config_fingerprint
       (Server.Protocol.platform_config Server.Protocol.default_flow_spec));
  match
    Server.Protocol.envelope_of_json
      (Server.Json.of_string {|{"v":1,"op":"calibrate","csv":"1e3,400,1.0,0.01"}|})
  with
  | Ok { request = Server.Protocol.Calibrate { config; _ }; _ } ->
    Alcotest.(check bool) "calibrate defaults = Engine.default_config" true
      (config = Calibrate.Engine.default_config)
  | _ -> Alcotest.fail "calibrate with defaults must decode"

(* README's request-field table: one row per member, nested ones under
   their dotted path, with the ops that take it (a member several ops
   share is one row), its default, domain and doc string. *)
let rec doc_json = function
  | Server.Json.Float x -> Printf.sprintf "%g" x
  | Server.Json.List xs -> "[" ^ String.concat ", " (List.map doc_json xs) ^ "]"
  | json -> Server.Json.to_string json

let rec rows : type a. string -> a F.t -> (string * F.any) list =
 fun path f ->
  let nested o = List.concat_map (fun (F.Any m) -> rows (path ^ f.F.name ^ ".") m) (F.members o) in
  (path ^ f.F.name, F.Any f) :: (match f.F.kind with F.Object o | F.Alt (_, o) -> nested o | _ -> [])

let field_table () =
  let all =
    List.concat_map
      (fun (op, fs) -> List.concat_map (fun (F.Any f) -> List.map (fun r -> (op, r)) (rows "" f)) fs)
      Server.Protocol.request_fields
  in
  let same (p, F.Any f) (p', F.Any g) = p = p' && f.F.doc = g.F.doc in
  let rec render = function
    | [] -> []
    | (op, ((path, F.Any f) as r)) :: rest ->
      let shared, rest = List.partition (fun (_, r') -> same r r') rest in
      let default =
        match f.F.kind with
        | F.Optional _ -> "unset"
        | _ -> "`" ^ doc_json (F.write f.F.kind f.F.default) ^ "`"
      in
      Printf.sprintf "| `%s` | %s | %s | %s | %s |" path
        (String.concat ", " (op :: List.map fst shared))
        default (F.domain_string f.F.kind) f.F.doc
      :: render rest
  in
  String.concat "\n"
    ("| field | ops | default | domain | meaning |" :: "|---|---|---|---|---|" :: render all)
  ^ "\n"

let test_readme_field_table () =
  let text = In_channel.with_open_bin "../README.md" In_channel.input_all in
  let between a b =
    let i = Str.search_forward (Str.regexp_string a) text 0 + String.length a in
    String.sub text i (Str.search_forward (Str.regexp_string b) text i - i)
  in
  let expected = "\n" ^ field_table () in
  if between "<!-- request-fields:begin -->" "<!-- request-fields:end -->" <> expected then begin
    prerr_string ("README's request-field table should read:" ^ expected);
    Alcotest.fail "README's request-field table differs from Server.Request_fields"
  end

(* --- Circuits: the memoized resolver --- *)

let resolve_ok c spec =
  match Server.Circuits.resolve c ~max_bench_bytes:(1 lsl 20) spec with
  | Ok r -> r
  | Error { Server.Protocol.message; _ } -> Alcotest.fail message

let circuit_stats c = Server.Cache.stats (Server.Circuits.cache c)

let test_circuits_named_memo () =
  let c = Server.Circuits.create () in
  let a = resolve_ok c (Server.Protocol.Named "c880") in
  let b = resolve_ok c (Server.Protocol.Named "c880") in
  Alcotest.(check bool) "repeat returns the same netlist value" true
    (a.Server.Circuits.net == b.Server.Circuits.net);
  Alcotest.(check string) "same digest" a.Server.Circuits.digest b.Server.Circuits.digest;
  Alcotest.(check string) "digest of the generator"
    (Circuit.Netlist.digest (Circuit.Generators.by_name "c880"))
    a.Server.Circuits.digest;
  Alcotest.(check string) "named as requested" "c880" a.Server.Circuits.net.Circuit.Netlist.name;
  let s = circuit_stats c in
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1) (s.Server.Cache.misses, s.Server.Cache.hits)

let test_circuits_inline_keyed_by_content () =
  let c = Server.Circuits.create () in
  let text = Circuit.Bench_io.to_string (Circuit.Generators.by_name "c432") in
  let r = resolve_ok c (Server.Protocol.Bench text) in
  Alcotest.(check string) "named inline" "inline" r.Server.Circuits.net.Circuit.Netlist.name;
  (match Circuit.Bench_io.parse_result ~name:"inline" text with
  | Ok fresh ->
    Alcotest.(check string) "digest of a fresh parse" (Circuit.Netlist.digest fresh)
      r.Server.Circuits.digest
  | Error e -> Alcotest.fail e.Circuit.Bench_io.message);
  Alcotest.(check bool) "equal text hits" true
    ((resolve_ok c (Server.Protocol.Bench text)).Server.Circuits.net == r.Server.Circuits.net);
  (* one more byte: the same structure, but never the cached value *)
  let r' = resolve_ok c (Server.Protocol.Bench (text ^ "\n")) in
  Alcotest.(check bool) "a different text is a miss" true
    (r'.Server.Circuits.net != r.Server.Circuits.net);
  Alcotest.(check string) "structurally equal" r.Server.Circuits.digest r'.Server.Circuits.digest;
  let s = circuit_stats c in
  Alcotest.(check (pair int int)) "two misses, one hit" (2, 1) (s.Server.Cache.misses, s.Server.Cache.hits);
  Alcotest.(check int) "two entries" 2 s.Server.Cache.size

let test_circuits_errors_not_cached () =
  let c = Server.Circuits.create () in
  let expect_error ?(max_bench_bytes = 1 lsl 20) code spec =
    match Server.Circuits.resolve c ~max_bench_bytes spec with
    | Ok _ -> Alcotest.fail "expected an error"
    | Error e ->
      Alcotest.(check string) "code" (Server.Protocol.error_code_string code)
        (Server.Protocol.error_code_string e.Server.Protocol.code);
      e.Server.Protocol.details
  in
  for _ = 1 to 2 do
    ignore (expect_error Server.Protocol.Bad_request (Server.Protocol.Named "c9999"));
    ignore
      (expect_error ~max_bench_bytes:8 Server.Protocol.Invalid_request
         (Server.Protocol.Bench "INPUT(a)\nz = NOT(a)\nOUTPUT(z)\n"));
    let details =
      expect_error Server.Protocol.Invalid_request
        (Server.Protocol.Bench "INPUT(a)\nz = FOO(a)\nOUTPUT(z)\n")
    in
    Alcotest.(check bool) "parse error keeps its line" true
      (List.assoc_opt "line" details = Some (Server.Json.Int 2))
  done;
  Alcotest.(check int) "nothing cached" 0 (circuit_stats c).Server.Cache.size

let test_circuits_bounds_evict () =
  let named n = Server.Protocol.Named n in
  let c = Server.Circuits.create ~capacity:2 () in
  List.iter (fun n -> ignore (resolve_ok c (named n))) [ "c17"; "c432"; "c880" ];
  let s = circuit_stats c in
  Alcotest.(check (pair int int)) "entry bound evicts the LRU" (2, 1)
    (s.Server.Cache.size, s.Server.Cache.evictions);
  ignore (resolve_ok c (named "c17"));
  Alcotest.(check int) "evicted circuit is rebuilt" 4 (circuit_stats c).Server.Cache.misses;
  (* 128 bytes per node: c17 and c432 fit in 25 600 bytes, c880 alone
     does not, and the newest entry is always kept *)
  let c = Server.Circuits.create ~max_bytes:25_600 () in
  ignore (resolve_ok c (named "c17"));
  ignore (resolve_ok c (named "c432"));
  Alcotest.(check int) "both fit" 2 (circuit_stats c).Server.Cache.size;
  ignore (resolve_ok c (named "c880"));
  let s = circuit_stats c in
  Alcotest.(check (pair int int)) "byte bound evicts" (1, 2)
    (s.Server.Cache.size, s.Server.Cache.evictions);
  Alcotest.(check bool) "within budget but for the newest" true
    (s.Server.Cache.bytes_used = 128 * Circuit.Netlist.n_nodes (Circuit.Generators.by_name "c880"))

(* --- Service: in-process dispatch --- *)

let analyze_c17_request ?id () =
  let open Server.Protocol in
  json_of_envelope
    {
      id;
      timeout_ms = None;
      trace = None;
      request = Single (Analyze { circuit = Named "c17"; flow = default_flow_spec; standby = Worst });
    }

let result_of_response json =
  match Server.Protocol.response_result json with
  | Ok r -> r
  | Error (code, m) -> Alcotest.fail (code ^ ": " ^ m)

let test_service_roundtrip_exact () =
  let t = Server.Service.create () in
  (* direct platform run, same config as the protocol default *)
  let cfg = Server.Protocol.platform_config Server.Protocol.default_flow_spec in
  let net = Circuit.Generators.c17 () in
  let direct =
    Flow.Platform.analyze cfg (Flow.Platform.prepare cfg net)
      ~standby:Aging.Circuit_aging.Standby_all_stressed
  in
  (* served run, through the full encode -> dispatch -> decode path *)
  let response =
    Server.Json.of_string (Server.Service.handle_line t (Server.Json.to_string (analyze_c17_request ())))
  in
  let result = result_of_response response in
  let served = Server.Protocol.analysis_of_json (Server.Json.member "analysis" result) in
  Alcotest.(check bool) "served analysis = direct analysis, bit-exact" true (served = direct);
  Alcotest.(check bool) "first answer is uncached" false
    (Server.Json.to_bool (Server.Json.member "cached" result));
  Alcotest.(check string) "digest advertised" (Circuit.Netlist.digest net)
    (Server.Json.to_string_exn (Server.Json.member "digest" result));
  Alcotest.(check string) "fingerprint advertised" (Flow.Platform.config_fingerprint cfg)
    (Server.Json.to_string_exn (Server.Json.member "fingerprint" result))

let test_service_cache_hit () =
  let t = Server.Service.create () in
  let ask () = result_of_response (Server.Frontend.handle t (analyze_c17_request ())) in
  let r1 = ask () in
  let r2 = ask () in
  Alcotest.(check bool) "first uncached" false
    (Server.Json.to_bool (Server.Json.member "cached" r1));
  Alcotest.(check bool) "second cached" true
    (Server.Json.to_bool (Server.Json.member "cached" r2));
  (* identical numbers from the cache *)
  Alcotest.(check bool) "identical payloads" true
    (Server.Json.member "analysis" r1 = Server.Json.member "analysis" r2);
  (* the stats endpoint confirms: one result-cache hit, one miss, and no
     second prepare *)
  let stats =
    result_of_response
      (Server.Frontend.handle t
         (Server.Json.Assoc [ ("v", Server.Json.Int 1); ("op", Server.Json.String "stats") ]))
  in
  let cache_field group field =
    Server.Json.(to_int (member field (member group (member "cache" stats))))
  in
  Alcotest.(check int) "result hits" 1 (cache_field "results" "hits");
  Alcotest.(check int) "result misses" 1 (cache_field "results" "misses");
  Alcotest.(check int) "prepared computed once" 1 (cache_field "prepared" "misses");
  let analyze_requests =
    Server.Json.(to_int (member "requests" (member "analyze" (member "endpoints" stats))))
  in
  Alcotest.(check int) "request counter" 2 analyze_requests

let test_service_prepared_shared_across_years () =
  let open Server.Protocol in
  let t = Server.Service.create () in
  let ask years =
    let flow = { default_flow_spec with years } in
    let e =
      {
        id = None;
        timeout_ms = None;
        trace = None;
        request = Single (Analyze { circuit = Named "c17"; flow; standby = Worst });
      }
    in
    ignore (result_of_response (Server.Frontend.handle t (json_of_envelope e)))
  in
  ask 10.0;
  ask 3.0;
  ask 1.0;
  let stats =
    result_of_response
      (Server.Frontend.handle t
         (Server.Json.Assoc [ ("v", Server.Json.Int 1); ("op", Server.Json.String "stats") ]))
  in
  let prepared field =
    Server.Json.(to_int (member field (member "prepared" (member "cache" stats))))
  in
  (* three different lifetimes: three result-cache entries but a single
     prepared pipeline *)
  Alcotest.(check int) "prepare ran once" 1 (prepared "misses");
  Alcotest.(check int) "prepare reused" 2 (prepared "hits")

let test_service_errors () =
  let t = Server.Service.create () in
  let expect_code code line =
    let response = Server.Json.of_string (Server.Service.handle_line t line) in
    match Server.Protocol.response_result response with
    | Ok _ -> Alcotest.fail ("expected error for " ^ line)
    | Error (c, _) -> Alcotest.(check string) ("code for " ^ line) code c
  in
  expect_code "parse_error" "{not json";
  expect_code "unsupported_version" "{\"op\":\"health\"}";
  expect_code "bad_request" "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c99999\"}";
  expect_code "bad_request"
    "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\",\"standby\":\"01\"}";
  expect_code "invalid_request"
    "{\"v\":1,\"op\":\"analyze\",\"circuit\":{\"bench\":\"INPUT a\"}}";
  (* id is echoed on errors too *)
  let response =
    Server.Json.of_string (Server.Service.handle_line t "{\"v\":1,\"id\":\"e1\",\"op\":\"nope\"}")
  in
  Alcotest.(check string) "id echoed" "e1"
    (Server.Json.to_string_exn (Server.Json.member "id" response))

let test_service_batch_and_health () =
  let t = Server.Service.create () in
  let line =
    "{\"v\":1,\"op\":\"batch\",\"jobs\":[{\"op\":\"analyze\",\"circuit\":\"c17\"},{\"op\":\"analyze\",\"circuit\":\"c17\",\"standby\":\"best\"},{\"op\":\"analyze\",\"circuit\":\"zzz\"}]}"
  in
  let result = result_of_response (Server.Json.of_string (Server.Service.handle_line t line)) in
  (match Server.Json.member "results" result with
  | Server.Json.List [ a; b; err ] ->
    Alcotest.(check string) "job 1 ok" "analysis"
      (Server.Json.to_string_exn (Server.Json.member "kind" a));
    Alcotest.(check string) "job 2 ok" "analysis"
      (Server.Json.to_string_exn (Server.Json.member "kind" b));
    Alcotest.(check string) "job 3 error inline" "error"
      (Server.Json.to_string_exn (Server.Json.member "kind" err));
    Alcotest.(check bool) "different standby, different numbers" true
      (Server.Json.member "analysis" a <> Server.Json.member "analysis" b)
  | _ -> Alcotest.fail "expected 3 batch results");
  let health =
    result_of_response
      (Server.Json.of_string (Server.Service.handle_line t "{\"v\":1,\"op\":\"health\"}"))
  in
  Alcotest.(check string) "healthy" "ok"
    (Server.Json.to_string_exn (Server.Json.member "status" health))

let test_service_ivc_and_sleep () =
  let t = Server.Service.create () in
  let ivc =
    result_of_response
      (Server.Json.of_string
         (Server.Service.handle_line t
            "{\"v\":1,\"op\":\"ivc_search\",\"circuit\":\"c17\",\"seed\":61,\"pool\":16}"))
  in
  let best = Server.Json.(member "best" (member "ivc" ivc)) in
  Alcotest.(check int) "best vector covers the PIs" 5
    (String.length (Server.Json.to_string_exn (Server.Json.member "vector" best)));
  Alcotest.(check bool) "positive leakage" true
    (Server.Json.to_float (Server.Json.member "leakage_a" best) > 0.0);
  let sleep =
    result_of_response
      (Server.Json.of_string
         (Server.Service.handle_line t
            "{\"v\":1,\"op\":\"sleep_sizing\",\"circuit\":\"c17\",\"style\":\"footer\",\"beta\":0.03}"))
  in
  let s = Server.Json.member "sleep" sleep in
  Alcotest.(check (float 0.0)) "footer has no ST drift" 0.0
    (Server.Json.to_float (Server.Json.member "st_dvth_v" s));
  Alcotest.(check bool) "with-ST slower than without" true
    (Server.Json.to_float (Server.Json.member "fresh_delay_with_st_s" s)
    > Server.Json.to_float (Server.Json.member "fresh_delay_s" s));
  (* a repeated optimization request is served from the result cache *)
  let ivc2 =
    result_of_response
      (Server.Json.of_string
         (Server.Service.handle_line t
            "{\"v\":1,\"op\":\"ivc_search\",\"circuit\":\"c17\",\"seed\":61,\"pool\":16}"))
  in
  Alcotest.(check bool) "ivc cached on repeat" true
    (Server.Json.to_bool (Server.Json.member "cached" ivc2));
  Alcotest.(check bool) "cached ivc identical" true
    (Server.Json.member "ivc" ivc = Server.Json.member "ivc" ivc2)

(* --- Service: the resolver on the request path --- *)

(* A response with the fields that legitimately differ between two
   services removed: the echoed id and which cache answered. *)
let strip_volatile line =
  let open Server.Json in
  match of_string line with
  | Assoc kvs ->
    to_string
      (Assoc
         (List.filter_map
            (fun (k, v) ->
              match (k, v) with
              | "id", _ -> None
              | "result", Assoc rs -> Some (k, Assoc (List.filter (fun (k', _) -> k' <> "cached") rs))
              | _ -> Some (k, v))
            kvs))
  | other -> to_string other

let analyze_line circuit =
  Server.Json.to_string
    (Server.Protocol.json_of_envelope
       {
         Server.Protocol.id = Some "x";
         timeout_ms = None;
         trace = None;
         request =
           Server.Protocol.Single
             (Server.Protocol.Analyze
                { circuit; flow = Server.Protocol.default_flow_spec; standby = Server.Protocol.Worst });
       })

(* c499 and c1355 are the same ECC structure, so they share a digest;
   a c17 upload shares one with the generator's c17. Each answer must
   still name its own circuit, exactly as a fresh service would. *)
let test_service_equal_structure_keeps_names () =
  let check_pair first second =
    let t = Server.Service.create () in
    ignore (Server.Service.handle_line t (analyze_line first));
    let warm = Server.Service.handle_line t (analyze_line second) in
    let fresh = Server.Service.handle_line (Server.Service.create ()) (analyze_line second) in
    Alcotest.(check string) "answer equals a fresh service's" (strip_volatile fresh)
      (strip_volatile warm)
  in
  Alcotest.(check string) "the pair really shares a digest"
    (Circuit.Netlist.digest (Circuit.Generators.by_name "c499"))
    (Circuit.Netlist.digest (Circuit.Generators.by_name "c1355"));
  check_pair (Server.Protocol.Named "c499") (Server.Protocol.Named "c1355");
  let c17_text = Circuit.Bench_io.to_string (Circuit.Generators.c17 ()) in
  check_pair (Server.Protocol.Named "c17") (Server.Protocol.Bench c17_text);
  check_pair (Server.Protocol.Bench c17_text) (Server.Protocol.Named "c17")

(* The prepared pipeline is shared across requests that differ only in
   aging-config fields (lifetime, schedule, R-D parameters), so nothing
   derived from those may live in it: an ivc_search under a new config
   after one under the default must answer as a fresh service does. *)
let test_service_ivc_follows_request_config () =
  let line config =
    Printf.sprintf "{\"v\":1,\"op\":\"ivc_search\",\"circuit\":\"c432\",\"seed\":5%s}" config
  in
  let t = Server.Service.create () in
  ignore (Server.Service.handle_line t (line ""));
  List.iter
    (fun config ->
      let warm = Server.Service.handle_line t (line config) in
      let fresh = Server.Service.handle_line (Server.Service.create ()) (line config) in
      Alcotest.(check string) (config ^ ": answer equals a fresh service's") (strip_volatile fresh)
        (strip_volatile warm))
    [ ",\"config\":{\"years\":1}"; ",\"config\":{\"t_standby\":400}" ]

let stats_of t =
  result_of_response (Server.Json.of_string (Server.Service.handle_line t "{\"v\":1,\"op\":\"stats\"}"))

let circuits_field stats field =
  Server.Json.(to_int (member field (member "circuits" (member "cache" stats))))

let test_service_reports_circuit_cache () =
  let t = Server.Service.create () in
  let line = analyze_line (Server.Protocol.Named "c432") in
  ignore (Server.Service.handle_line t line);
  let before = circuits_field (stats_of t) "hits" in
  ignore (Server.Service.handle_line t line);
  Alcotest.(check int) "second identical request: one more circuit hit" (before + 1)
    (circuits_field (stats_of t) "hits");
  Alcotest.(check int) "one circuit resident" 1 (circuits_field (stats_of t) "size");
  let prometheus =
    Server.Json.to_string_exn
      (Server.Json.member "prometheus"
         (result_of_response
            (Server.Json.of_string (Server.Service.handle_line t "{\"v\":1,\"op\":\"metrics\"}"))))
  in
  Alcotest.(check bool) "circuits cache exported as metrics" true
    (List.exists
       (fun l -> l = "nbti_cache_hits_total{cache=\"circuits\"} 1")
       (String.split_on_char '\n' prometheus))

(* Sixteen distinct jobs over repeated and structurally equal circuits,
   resolved concurrently by four domains, answer exactly as one domain
   does. The keys are distinct because a repeated job's "cached" flag
   depends on whether its twin finished first. *)
let test_batch_identical_across_domain_counts () =
  let circuits = [| "c17"; "c432"; "c499"; "c1355"; "c880"; "c17"; "c499"; "c1355" |] in
  let jobs =
    List.init 16 (fun i ->
        Printf.sprintf
          "{\"op\":\"analyze\",\"circuit\":\"%s\",\"config\":{\"years\":%d},\"standby\":\"%s\"}"
          circuits.(i mod 8) (1 + (i / 8))
          (if i mod 8 < 4 then "best" else "worst"))
  in
  let line = Printf.sprintf "{\"v\":1,\"op\":\"batch\",\"jobs\":[%s]}" (String.concat "," jobs) in
  let answer domains =
    let pool = Parallel.Pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () -> Server.Service.handle_line (Server.Service.create ~pool ()) line)
  in
  let one = answer 1 in
  Alcotest.(check bool) "every job answered" true
    (match Server.Json.member "results" (result_of_response (Server.Json.of_string one)) with
    | Server.Json.List rs ->
      List.length rs = 16
      && List.for_all (fun r -> Server.Json.member "kind" r = Server.Json.String "analysis") rs
    | _ -> false);
  Alcotest.(check string) "4 domains = 1 domain, byte for byte" one (answer 4)

(* --- Service: socket round trip --- *)

let test_socket_end_to_end () =
  let t = Server.Service.create () in
  let path = Filename.temp_file "nbti_service" ".sock" in
  Sys.remove path;
  let ready = Mutex.create () in
  let ready_cond = Condition.create () in
  let is_ready = ref false in
  let on_ready () =
    Mutex.lock ready;
    is_ready := true;
    Condition.signal ready_cond;
    Mutex.unlock ready
  in
  let server_thread =
    Thread.create (fun () -> Server.Frontend.serve t (Server.Netline.Unix_socket path) ~on_ready ()) ()
  in
  Mutex.lock ready;
  while not !is_ready do
    Condition.wait ready_cond ready
  done;
  Mutex.unlock ready;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let roundtrip line =
    output_string oc (line ^ "\n");
    flush oc;
    Server.Json.of_string (input_line ic)
  in
  (* several requests on one connection, answered in order *)
  let health = result_of_response (roundtrip "{\"v\":1,\"op\":\"health\"}") in
  Alcotest.(check string) "health over socket" "ok"
    (Server.Json.to_string_exn (Server.Json.member "status" health));
  let r1 = result_of_response (roundtrip (Server.Json.to_string (analyze_c17_request ~id:"s1" ()))) in
  let r2 = result_of_response (roundtrip (Server.Json.to_string (analyze_c17_request ~id:"s2" ()))) in
  Alcotest.(check bool) "socket: second cached" true
    (Server.Json.to_bool (Server.Json.member "cached" r2));
  Alcotest.(check bool) "socket: identical analysis" true
    (Server.Json.member "analysis" r1 = Server.Json.member "analysis" r2);
  (* decoded socket response equals the direct platform run *)
  let cfg = Server.Protocol.platform_config Server.Protocol.default_flow_spec in
  let direct =
    Flow.Platform.analyze cfg
      (Flow.Platform.prepare cfg (Circuit.Generators.c17 ()))
      ~standby:Aging.Circuit_aging.Standby_all_stressed
  in
  let served = Server.Protocol.analysis_of_json (Server.Json.member "analysis" r1) in
  Alcotest.(check bool) "socket analysis bit-exact" true (served = direct);
  Unix.close fd;
  Server.Frontend.stop t;
  Thread.join server_thread;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let test_endpoint_parsing () =
  let check_ok s expected =
    match Server.Netline.endpoint_of_string s with
    | Ok e -> Alcotest.(check bool) s true (e = expected)
    | Error m -> Alcotest.fail m
  in
  check_ok "/tmp/x.sock" (Server.Netline.Unix_socket "/tmp/x.sock");
  check_ok "unix:/tmp/x.sock" (Server.Netline.Unix_socket "/tmp/x.sock");
  check_ok "tcp:localhost:9000" (Server.Netline.Tcp ("localhost", 9000));
  check_ok "tcp::9000" (Server.Netline.Tcp ("127.0.0.1", 9000));
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (match Server.Netline.endpoint_of_string s with Error _ -> true | Ok _ -> false))
    [ ""; "tcp:localhost:notaport"; "tcp:localhost:0"; "tcp:nocolon" ]

(* --- Frontend: one exception-to-error table --- *)

(* A role whose dispatch raises [exn] for a whole request and for every
   batch entry: the front-end must answer both with the same code,
   message and details. *)
let raising_role exn =
  {
    Server.Frontend.cid_prefix = "test-";
    span_cat = "test";
    process_name = None;
    originates_traces = false;
    faults = (fun () -> Server.Faults.none);
    dispatch =
      (fun fe { Server.Protocol.id; timeout_ms; request; _ } ->
        match request with
        | Server.Protocol.Batch jobs ->
          let results =
            List.map (Server.Frontend.batch_entry fe ~timeout_ms (fun _ -> raise exn)) jobs
          in
          ( Server.Protocol.ok_response ~id
              (Server.Json.Assoc [ ("results", Server.Json.List results) ]),
            () )
        | _ -> raise exn);
    no_meta = ();
    access_fields = (fun () -> []);
    tick = None;
  }

let test_frontend_error_table () =
  let rejected =
    {
      Server.Protocol.code = Server.Protocol.Invalid_request;
      message = "netlist too large";
      details = [ ("line", Server.Json.Int 3) ];
    }
  in
  List.iter
    (fun (exn, code) ->
      let fe =
        Server.Frontend.create (raising_role exn) ~metrics:(Server.Metrics.create ())
          ~registry:(Obs.Registry.create ()) ~max_line_bytes:4096 ()
      in
      let ask line = Server.Json.of_string (Server.Frontend.handle_line fe line) in
      let whole =
        Server.Json.member "error"
          (ask {|{"v":1,"op":"analyze","circuit":"c17","timeout_ms":50}|})
      in
      let entry =
        match
          Server.Json.member "results"
            (Server.Json.member "result"
               (ask {|{"v":1,"op":"batch","jobs":[{"op":"analyze","circuit":"c17"}],"timeout_ms":50}|}))
        with
        | Server.Json.List [ e ] -> e
        | _ -> Alcotest.fail "expected one batch entry"
      in
      let name = Printexc.to_string exn in
      Alcotest.(check string) (name ^ ": code") code
        Server.Json.(to_string_exn (member "code" whole));
      Alcotest.(check string) (name ^ ": batch entry = whole-request error")
        (Server.Json.to_string
           (Server.Json.Assoc (("kind", Server.Json.String "error") :: Server.Json.to_assoc whole)))
        (Server.Json.to_string entry))
    [
      (Server.Frontend.Rejected rejected, "invalid_request");
      (Server.Frontend.Overloaded { max_pending = 4; retry_after_ms = 250 }, "overloaded");
      (Parallel.Budget.Deadline_exceeded, "deadline_exceeded");
      (Server.Faults.Injected "compute", "internal_error");
      (Server.Json.Type_error "expected a number", "bad_request");
      (Invalid_argument "vth_st out of range", "internal_error");
      (Failure "no convergence", "internal_error");
      (Not_found, "internal_error");
    ]

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float exactness" `Quick test_json_float_exact;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "find_or_add" `Quick test_cache_find_or_add;
          Alcotest.test_case "replace and bounds" `Quick test_cache_replace_and_bounds;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and histogram" `Quick test_metrics;
          Alcotest.test_case "time wrapper" `Quick test_metrics_time;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "versioning and errors" `Quick test_protocol_versioning;
          Alcotest.test_case "cache keys" `Quick test_job_cache_key;
          Alcotest.test_case "table defaults" `Quick test_table_defaults;
          Alcotest.test_case "README field table" `Quick test_readme_field_table;
          QCheck_alcotest.to_alcotest prop_table_codec_is_parent_codec;
        ] );
      ( "circuits",
        [
          Alcotest.test_case "named repeat is the same value" `Quick test_circuits_named_memo;
          Alcotest.test_case "inline keyed by content" `Quick test_circuits_inline_keyed_by_content;
          Alcotest.test_case "errors never cached" `Quick test_circuits_errors_not_cached;
          Alcotest.test_case "entry and byte bounds evict" `Quick test_circuits_bounds_evict;
        ] );
      ( "service",
        [
          Alcotest.test_case "round trip is bit-exact" `Quick test_service_roundtrip_exact;
          Alcotest.test_case "cache hit on repeat" `Quick test_service_cache_hit;
          Alcotest.test_case "prepared shared across lifetimes" `Quick
            test_service_prepared_shared_across_years;
          Alcotest.test_case "structured errors" `Quick test_service_errors;
          Alcotest.test_case "batch and health" `Quick test_service_batch_and_health;
          Alcotest.test_case "ivc and sleep ops" `Quick test_service_ivc_and_sleep;
          Alcotest.test_case "ivc_search follows the request's config" `Quick
            test_service_ivc_follows_request_config;
          Alcotest.test_case "equal structure keeps names" `Quick
            test_service_equal_structure_keeps_names;
          Alcotest.test_case "circuit cache in stats and metrics" `Quick
            test_service_reports_circuit_cache;
          Alcotest.test_case "batch identical across domain counts" `Quick
            test_batch_identical_across_domain_counts;
          Alcotest.test_case "endpoint parsing" `Quick test_endpoint_parsing;
          Alcotest.test_case "one error table for requests and batch entries" `Quick
            test_frontend_error_table;
          Alcotest.test_case "socket end to end" `Quick test_socket_end_to_end;
        ] );
    ]
