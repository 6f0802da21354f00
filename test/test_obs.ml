(* Tests for the observability layer: Metrics bucket boundaries and
   quantile clamping (including under concurrent domains), the Registry's
   Prometheus text exposition (escaping, family grouping, histogram
   series), Trace span nesting / capacity / Chrome export, and Log level
   filtering / JSONL shape. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what haystack needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %S in output" what needle)
    true (contains haystack needle)

(* --- Metrics: histogram bucket boundaries --- *)

let bucket_counts m endpoint =
  let s = List.find (fun s -> s.Server.Metrics.endpoint = endpoint) (Server.Metrics.snapshot m) in
  (s, s.Server.Metrics.histogram.Server.Metrics.counts)

let test_bucket_boundaries () =
  let m = Server.Metrics.create () in
  (* Bucket upper bounds are 1e-6 * sqrt(10)^i, inclusive: exactly 1 us
     lands in bucket 0, just above it in bucket 1, and anything past
     100 s in the overflow bucket. *)
  Server.Metrics.record m ~endpoint:"e" ~ok:true ~elapsed_s:1e-6;
  Server.Metrics.record m ~endpoint:"e" ~ok:true ~elapsed_s:1.0001e-6;
  Server.Metrics.record m ~endpoint:"e" ~ok:true ~elapsed_s:150.0;
  let s, counts = bucket_counts m "e" in
  Alcotest.(check int) "bucket 0 holds the exact bound" 1 counts.(0);
  Alcotest.(check int) "bucket 1 holds just-above" 1 counts.(1);
  Alcotest.(check int) "overflow bucket" 1 counts.(Array.length counts - 1);
  Alcotest.(check int) "18 buckets (17 bounds + overflow)" 18 (Array.length counts);
  Alcotest.(check int) "requests" 3 s.Server.Metrics.requests;
  (* Negative elapsed is clamped to 0 and lands in bucket 0. *)
  Server.Metrics.record m ~endpoint:"neg" ~ok:true ~elapsed_s:(-1.0);
  let s', counts' = bucket_counts m "neg" in
  Alcotest.(check int) "negative clamps to bucket 0" 1 counts'.(0);
  Alcotest.(check (float 0.0)) "negative clamps min to 0" 0.0 s'.Server.Metrics.min_s

let test_quantile_clamping () =
  let m = Server.Metrics.create () in
  (* One 2 ms sample falls in the 3.16 ms bucket: without clamping the
     p50 estimate would exceed the slowest observation. *)
  Server.Metrics.record m ~endpoint:"one" ~ok:true ~elapsed_s:0.002;
  let s, _ = bucket_counts m "one" in
  Alcotest.(check (float 1e-12)) "single sample: p50 = the sample" 0.002
    (Server.Metrics.quantile_s s 0.5);
  let m2 = Server.Metrics.create () in
  Server.Metrics.record m2 ~endpoint:"two" ~ok:true ~elapsed_s:0.0005;
  Server.Metrics.record m2 ~endpoint:"two" ~ok:true ~elapsed_s:0.002;
  let s2, _ = bucket_counts m2 "two" in
  List.iter
    (fun q ->
      let v = Server.Metrics.quantile_s s2 q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f >= min" q)
        true
        (v >= s2.Server.Metrics.min_s);
      Alcotest.(check bool) (Printf.sprintf "q=%.2f <= max" q) true (v <= s2.Server.Metrics.max_s))
    [ 0.01; 0.5; 0.9; 0.99 ];
  let empty = Server.Metrics.create () in
  Server.Metrics.record empty ~endpoint:"z" ~ok:true ~elapsed_s:0.001;
  let sz, _ = bucket_counts empty "z" in
  Alcotest.(check bool) "p99 bounded by max" true
    (Server.Metrics.quantile_s sz 0.99 <= sz.Server.Metrics.max_s)

let test_concurrent_record () =
  let m = Server.Metrics.create () in
  let per_domain = 1000 in
  let worker () =
    for i = 1 to per_domain do
      Server.Metrics.record m ~endpoint:"hot" ~ok:(i mod 10 <> 0)
        ~elapsed_s:(1e-6 *. float_of_int i);
      Server.Metrics.incr_counter m "events"
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let s, counts = bucket_counts m "hot" in
  Alcotest.(check int) "no lost requests" (4 * per_domain) s.Server.Metrics.requests;
  Alcotest.(check int) "no lost errors" (4 * per_domain / 10) s.Server.Metrics.errors;
  Alcotest.(check int) "no lost counter increments" (4 * per_domain)
    (Server.Metrics.counter m "events");
  Alcotest.(check int) "histogram mass = requests" (4 * per_domain)
    (Array.fold_left ( + ) 0 counts)

(* --- Registry: Prometheus exposition --- *)

let test_prometheus_escaping () =
  let r = Obs.Registry.create () in
  Obs.Registry.register r (fun () ->
      [
        {
          Obs.Registry.name = "weird-name.total";
          help = "a\\b\nhelp";
          labels = [ ("path", "a\\b\"c\nd") ];
          value = Obs.Registry.Counter 3.0;
        };
      ]);
  let text = Obs.Registry.to_prometheus r in
  check_contains "sanitized family" text "weird_name_total";
  check_contains "escaped help" text "# HELP weird_name_total a\\\\b\\nhelp";
  check_contains "escaped label" text "{path=\"a\\\\b\\\"c\\nd\"} 3";
  Alcotest.(check string) "sanitize_name" "weird_name_total"
    (Obs.Registry.sanitize_name "weird-name.total");
  Alcotest.(check string) "leading digit prefixed" "_9lives"
    (Obs.Registry.sanitize_name "9lives");
  Alcotest.(check string) "escape_label_value" "a\\\\b\\\"c\\nd"
    (Obs.Registry.escape_label_value "a\\b\"c\nd")

let test_prometheus_histogram_and_grouping () =
  let r = Obs.Registry.create () in
  (* Two collectors interleave families: the exposition must regroup so
     each family's lines are consecutive with one HELP/TYPE header. *)
  let counter label v =
    {
      Obs.Registry.name = "nbti_requests_total";
      help = "Requests.";
      labels = [ ("endpoint", label) ];
      value = Obs.Registry.Counter v;
    }
  in
  Obs.Registry.register r (fun () ->
      [
        counter "a" 1.0;
        {
          Obs.Registry.name = "nbti_latency_seconds";
          help = "Latency.";
          labels = [];
          value =
            Obs.Registry.Histogram
              { upper_bounds = [| 0.1; 1.0 |]; counts = [| 1; 2; 3 |]; sum = 4.5; count = 6 };
        };
      ]);
  Obs.Registry.register r (fun () -> [ counter "b" 2.0 ]);
  let text = Obs.Registry.to_prometheus r in
  check_contains "cumulative first bucket" text "nbti_latency_seconds_bucket{le=\"0.1\"} 1";
  check_contains "cumulative second bucket" text "nbti_latency_seconds_bucket{le=\"1\"} 3";
  check_contains "+Inf bucket = count" text "nbti_latency_seconds_bucket{le=\"+Inf\"} 6";
  check_contains "sum" text "nbti_latency_seconds_sum 4.5";
  check_contains "count" text "nbti_latency_seconds_count 6";
  check_contains "histogram TYPE" text "# TYPE nbti_latency_seconds histogram";
  (* One header per family, and both endpoint samples adjacent. *)
  let lines = String.split_on_char '\n' text in
  let type_lines = List.filter (contains "# TYPE nbti_requests_total") lines in
  Alcotest.(check int) "one TYPE line for the family" 1 (List.length type_lines);
  let family_lines =
    List.filter (fun l -> contains l "nbti_requests_total{" ) lines
  in
  Alcotest.(check int) "both samples rendered" 2 (List.length family_lines);
  let rec adjacent = function
    | a :: b :: _ when contains a "nbti_requests_total{endpoint=\"a\"}" ->
      contains b "nbti_requests_total{endpoint=\"b\"}"
    | _ :: rest -> adjacent rest
    | [] -> false
  in
  Alcotest.(check bool) "family lines consecutive" true (adjacent lines)

let test_prometheus_roundtrip_from_metrics () =
  let m = Server.Metrics.create () in
  Server.Metrics.record m ~endpoint:"analyze" ~ok:true ~elapsed_s:0.01;
  Server.Metrics.record m ~endpoint:"analyze" ~ok:false ~elapsed_s:0.02;
  Server.Metrics.incr_counter m "shed";
  let r = Obs.Registry.create () in
  Obs.Registry.register r (fun () -> Server.Metrics.registry_samples m);
  Obs.Registry.register_gauge r ~name:"nbti_pending_requests" (fun () -> 5.0);
  let text = Obs.Registry.to_prometheus r in
  check_contains "requests family" text "nbti_requests_total{endpoint=\"analyze\"} 2";
  check_contains "errors family" text "nbti_request_errors_total{endpoint=\"analyze\"} 1";
  check_contains "events family" text "nbti_events_total{event=\"shed\"} 1";
  check_contains "latency count" text
    "nbti_request_latency_seconds_count{endpoint=\"analyze\"} 2";
  check_contains "latency +Inf" text
    "nbti_request_latency_seconds_bucket{endpoint=\"analyze\",le=\"+Inf\"} 2";
  check_contains "gauge" text "nbti_pending_requests 5";
  (* A raising collector contributes nothing and does not break the scrape. *)
  Obs.Registry.register r (fun () -> failwith "scrape bomb");
  let text' = Obs.Registry.to_prometheus r in
  check_contains "scrape survives a raising collector" text' "nbti_pending_requests 5"

(* --- Trace --- *)

let with_collector ?capacity f =
  let c = Obs.Trace.create ?capacity () in
  Obs.Trace.install c;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () -> f c)

let test_trace_nesting () =
  with_collector @@ fun c ->
  Obs.Ctx.with_id "req-42" (fun () ->
      Obs.Trace.with_span ~cat:"flow" "outer" (fun () ->
          Obs.Trace.with_span "inner" (fun () -> ())));
  match Obs.Trace.spans c with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner path" "outer;inner" inner.Obs.Trace.path;
    Alcotest.(check string) "outer path" "outer" outer.Obs.Trace.path;
    Alcotest.(check string) "category" "flow" outer.Obs.Trace.cat;
    Alcotest.(check (option string)) "inner cid" (Some "req-42") inner.Obs.Trace.cid;
    Alcotest.(check (option string)) "outer cid" (Some "req-42") outer.Obs.Trace.cid;
    Alcotest.(check bool) "ok" true (inner.Obs.Trace.ok && outer.Obs.Trace.ok);
    Alcotest.(check bool) "inner nested in time" true
      (inner.Obs.Trace.ts_us >= outer.Obs.Trace.ts_us
      && inner.Obs.Trace.dur_us <= outer.Obs.Trace.dur_us)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_trace_capacity_drop () =
  with_collector ~capacity:2 @@ fun c ->
  for i = 1 to 5 do
    Obs.Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans c) in
  Alcotest.(check (list string)) "newest spans retained, oldest first" [ "s4"; "s5" ] names;
  Alcotest.(check int) "dropped counts overwrites" 3 (Obs.Trace.dropped c);
  Obs.Trace.clear c;
  Alcotest.(check int) "clear empties" 0 (List.length (Obs.Trace.spans c))

let test_trace_exception_and_disabled () =
  (* Disabled: with_span is transparent — value through, no recording. *)
  Obs.Trace.uninstall ();
  Alcotest.(check bool) "disabled" false (Obs.Trace.enabled ());
  Alcotest.(check int) "thunk still runs" 7 (Obs.Trace.with_span "ghost" (fun () -> 7));
  with_collector @@ fun c ->
  (match Obs.Trace.with_span "boom" (fun () -> failwith "kaput") with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "exception re-raised" "kaput" m);
  match Obs.Trace.spans c with
  | [ s ] -> Alcotest.(check bool) "span marked not ok" false s.Obs.Trace.ok
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_trace_chrome_json () =
  let json =
    with_collector @@ fun c ->
    Obs.Ctx.with_id "cid-1" (fun () ->
        Obs.Trace.with_span ~args:[ ("gates", Obs.Fields.Int 160) ] "analyze" (fun () ->
            Obs.Trace.instant ~cat:"cache" "cache.hit"));
    Obs.Json.to_string (Obs.Trace.to_chrome c)
  in
  match Server.Json.of_string json with
  | Server.Json.Assoc fields ->
    (match List.assoc_opt "traceEvents" fields with
    | Some (Server.Json.List events) ->
      Alcotest.(check int) "span + instant" 2 (List.length events);
      let has_path =
        List.exists
          (function
            | Server.Json.Assoc ev -> (
              match List.assoc_opt "args" ev with
              | Some (Server.Json.Assoc args) ->
                List.assoc_opt "path" args = Some (Server.Json.String "analyze")
                && List.assoc_opt "cid" args = Some (Server.Json.String "cid-1")
              | _ -> false)
            | _ -> false)
          events
      in
      Alcotest.(check bool) "span event carries path and cid" true has_path
    | _ -> Alcotest.fail "traceEvents missing");
    Alcotest.(check bool) "droppedSpans present" true
      (List.mem_assoc "droppedSpans" fields)
  | _ -> Alcotest.fail "chrome export is not a JSON object"

(* Every control byte, the two JSON metacharacters, DEL and multi-byte
   UTF-8 (2, 3 and 4 bytes): a log record or a span that carries them
   must parse back to the bytes written. *)
let awkward = String.init 32 Char.chr ^ "\"\\\x7f" ^ "\xc3\xa9\xe2\x82\xac\xf0\x9d\x84\x9e"

let test_trace_escaping () =
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (with_collector @@ fun c ->
   Obs.Trace.with_span ~cat:awkward ~args:[ (awkward, Obs.Fields.Str awkward) ] awkward
     (fun () -> ());
   Obs.Trace.write_chrome_json c ~path);
  let json = Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  match Obs.Json.to_list (Obs.Json.member "traceEvents" json) with
  | [ ev ] ->
    let str key j = Obs.Json.to_string_exn (Obs.Json.member key j) in
    Alcotest.(check string) "name" awkward (str "name" ev);
    Alcotest.(check string) "cat" awkward (str "cat" ev);
    Alcotest.(check string) "arg" awkward (str awkward (Obs.Json.member "args" ev))
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* A served trace_export answers the bytes of [to_chrome] on the same
   collector: the same events and the same drop count (the ring below
   holds 4 of 6 spans). The export is taken before the request, whose
   own span only lands once it is answered. *)
let test_trace_export_served () =
  with_collector ~capacity:4 @@ fun c ->
  let t = Server.Service.create () in
  for i = 1 to 6 do
    Obs.Trace.with_span ~args:[ ("i", Obs.Fields.Int i) ] "work" (fun () -> ())
  done;
  let direct = Obs.Json.of_string (Obs.Json.to_string (Obs.Trace.to_chrome c)) in
  let answer = Server.Service.handle_line t {|{"v":1,"op":"trace_export"}|} in
  let served =
    match Server.Protocol.response_result (Obs.Json.of_string answer) with
    | Ok r -> Obs.Json.member "trace" r
    | Error (code, m) -> Alcotest.fail (code ^ ": " ^ m)
  in
  let events j = Obs.Json.to_list (Obs.Json.member "traceEvents" j) in
  Alcotest.(check int) "four events" 4 (List.length (events served));
  Alcotest.(check bool) "events = to_chrome's" true (events served = events direct);
  Alcotest.(check int) "two dropped" 2 (Obs.Json.to_int (Obs.Json.member "droppedSpans" served));
  Alcotest.(check bool) "droppedSpans = to_chrome's" true
    (Obs.Json.member "droppedSpans" served = Obs.Json.member "droppedSpans" direct)

let test_flame_summary () =
  with_collector @@ fun c ->
  Obs.Trace.with_span "a" (fun () ->
      Obs.Trace.with_span "b" (fun () -> ());
      Obs.Trace.with_span "b" (fun () -> ()));
  let flame = Obs.Trace.flame_summary c in
  check_contains "parent line" flame "a";
  check_contains "child line counts calls" flame "a;b"

(* --- Trace: distributed propagation --- *)

let test_trace_ids_and_propagation () =
  let id1 = Obs.Trace.new_trace_id () and id2 = Obs.Trace.new_trace_id () in
  Alcotest.(check int) "trace id is 32 hex chars" 32 (String.length id1);
  Alcotest.(check bool) "trace ids are hex" true
    (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) id1);
  Alcotest.(check bool) "trace ids distinct" true (id1 <> id2);
  Alcotest.(check int) "span hex is 16 chars" 16 (String.length (Obs.Trace.span_hex 7));
  (* No context installed: nothing to propagate. *)
  Alcotest.(check bool) "no context, no propagation" true
    (Obs.Trace.propagation_context () = None);
  with_collector @@ fun c ->
  let remote = "00c0ffee00c0ffee" in
  let inner_prop = ref None in
  Obs.Ctx.with_trace
    { Obs.Ctx.trace_id = id1; parent_span = Some remote }
    (fun () ->
      Obs.Trace.with_span "outer" (fun () ->
          inner_prop := Obs.Trace.propagation_context ();
          Obs.Trace.with_span "inner" (fun () -> ())));
  (* The outgoing context points at the innermost open span. *)
  (match !inner_prop with
  | Some tr ->
    Alcotest.(check string) "propagated trace id" id1 tr.Obs.Ctx.trace_id;
    (match tr.Obs.Ctx.parent_span with
    | Some p -> Alcotest.(check int) "parent is a span hex" 16 (String.length p)
    | None -> Alcotest.fail "propagation lost the open span")
  | None -> Alcotest.fail "no propagation context under an installed trace");
  match Obs.Trace.spans c with
  | [ inner; outer ] ->
    Alcotest.(check (option string)) "outer carries the trace id" (Some id1)
      outer.Obs.Trace.trace_id;
    Alcotest.(check (option string)) "inner carries the trace id" (Some id1)
      inner.Obs.Trace.trace_id;
    (* Root spans parent onto the remote span from the wire; nested
       spans parent locally. *)
    Alcotest.(check bool) "outer parents onto the remote span" true
      (outer.Obs.Trace.parent = Obs.Trace.Remote remote);
    Alcotest.(check bool) "inner parents onto outer" true
      (inner.Obs.Trace.parent = Obs.Trace.Span outer.Obs.Trace.seq);
    (match !inner_prop with
    | Some { Obs.Ctx.parent_span = Some p; _ } ->
      Alcotest.(check string) "propagation pointed at outer"
        (Obs.Trace.span_hex outer.Obs.Trace.seq) p
    | _ -> ())
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_trace_drop_counter_sample () =
  with_collector ~capacity:1 @@ fun _ ->
  Obs.Trace.with_span "a" (fun () -> ());
  Obs.Trace.with_span "b" (fun () -> ());
  match Obs.Trace.registry_samples () with
  | [ s ] ->
    Alcotest.(check string) "drop counter family" "nbti_trace_dropped_spans_total"
      s.Obs.Registry.name;
    Alcotest.(check bool) "one overwrite counted" true (s.Obs.Registry.value = Obs.Registry.Counter 1.0)
  | l -> Alcotest.failf "expected 1 sample, got %d" (List.length l)

(* --- Registry: render / of_prometheus round trip --- *)

let test_prometheus_parse_roundtrip () =
  let samples =
    [
      {
        Obs.Registry.name = "nbti_requests_total";
        help = "Requests.";
        labels = [ ("endpoint", "analyze") ];
        value = Obs.Registry.Counter 12.0;
      };
      {
        Obs.Registry.name = "nbti_pending_requests";
        help = "Pending.";
        labels = [];
        value = Obs.Registry.Gauge 3.0;
      };
      {
        Obs.Registry.name = "nbti_request_latency_seconds";
        help = "Latency.";
        labels = [ ("endpoint", "analyze") ];
        value =
          Obs.Registry.Histogram
            { upper_bounds = [| 0.1; 1.0 |]; counts = [| 1; 2; 3 |]; sum = 4.5; count = 6 };
      };
    ]
  in
  let parsed = Obs.Registry.of_prometheus (Obs.Registry.render samples) in
  Alcotest.(check int) "all families parsed back" 3 (List.length parsed);
  let find name = List.find (fun s -> s.Obs.Registry.name = name) parsed in
  (match (find "nbti_requests_total").Obs.Registry.value with
  | Obs.Registry.Counter v -> Alcotest.(check (float 1e-9)) "counter value" 12.0 v
  | _ -> Alcotest.fail "counter type lost");
  Alcotest.(check (list (pair string string))) "labels survive"
    [ ("endpoint", "analyze") ]
    (find "nbti_requests_total").Obs.Registry.labels;
  (match (find "nbti_request_latency_seconds").Obs.Registry.value with
  | Obs.Registry.Histogram { upper_bounds; counts; sum; count } ->
    (* of_prometheus must de-cumulate the rendered buckets back to the
       original per-bucket counts. *)
    Alcotest.(check (array (float 1e-9))) "bounds" [| 0.1; 1.0 |] upper_bounds;
    Alcotest.(check (array int)) "per-bucket counts" [| 1; 2; 3 |] counts;
    Alcotest.(check (float 1e-9)) "sum" 4.5 sum;
    Alcotest.(check int) "count" 6 count
  | _ -> Alcotest.fail "histogram type lost");
  (* render ∘ of_prometheus ∘ render is a fixpoint *)
  Alcotest.(check string) "second round trip is a fixpoint"
    (Obs.Registry.render samples)
    (Obs.Registry.render parsed)

(* --- Slo --- *)

let test_slo_parse_spec () =
  (match Obs.Slo.parse_spec "analyze=50ms:99,calibrate=2s:99.9" with
  | Ok [ a; c ] ->
    Alcotest.(check string) "op" "analyze" a.Obs.Slo.op;
    Alcotest.(check (float 1e-9)) "50ms threshold" 0.05 a.Obs.Slo.threshold_s;
    Alcotest.(check (float 1e-9)) "99% target" 0.99 a.Obs.Slo.target;
    Alcotest.(check (float 1e-9)) "2s threshold" 2.0 c.Obs.Slo.threshold_s;
    Alcotest.(check (float 1e-9)) "99.9% target" 0.999 c.Obs.Slo.target
  | Ok l -> Alcotest.failf "expected 2 objectives, got %d" (List.length l)
  | Error m -> Alcotest.fail m);
  (match Obs.Slo.parse_spec "analyze=250us:90" with
  | Ok [ a ] -> Alcotest.(check (float 1e-12)) "us threshold" 2.5e-4 a.Obs.Slo.threshold_s
  | _ -> Alcotest.fail "us spec should parse");
  List.iter
    (fun bad ->
      match Obs.Slo.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S should be rejected" bad)
    [ "analyze"; "analyze=50ms"; "analyze=50ms:0"; "analyze=50ms:100"; "analyze=-1s:99"; "=50ms:99" ]

let test_slo_burn_rates () =
  let obj = { Obs.Slo.op = "analyze"; threshold_s = 0.05; target = 0.99 } in
  let slo = Obs.Slo.create ~now:1000.0 [ obj ] in
  (* 100 requests, 2 bad (one error, one too slow): bad fraction 0.02
     against a 0.01 budget = burn rate 2.0 on both windows. *)
  for i = 1 to 98 do
    Obs.Slo.observe ~now:(1000.0 +. float_of_int i) slo ~op:"analyze" ~ok:true ~elapsed_s:0.01
  done;
  Obs.Slo.observe ~now:1099.0 slo ~op:"analyze" ~ok:false ~elapsed_s:0.01;
  Obs.Slo.observe ~now:1099.5 slo ~op:"analyze" ~ok:true ~elapsed_s:0.2;
  (* an op with no objective is ignored *)
  Obs.Slo.observe ~now:1099.5 slo ~op:"stats" ~ok:false ~elapsed_s:9.9;
  (match Obs.Slo.status ~now:1100.0 slo with
  | [ { Obs.Slo.objective; windows = [ w5; w1h ] } ] ->
    Alcotest.(check string) "objective op" "analyze" objective.Obs.Slo.op;
    Alcotest.(check string) "5m label" "5m" w5.Obs.Slo.label;
    Alcotest.(check int) "5m total" 100 w5.Obs.Slo.total;
    Alcotest.(check int) "5m bad" 2 w5.Obs.Slo.bad;
    Alcotest.(check (float 1e-9)) "5m burn" 2.0 w5.Obs.Slo.burn_rate;
    Alcotest.(check string) "1h label" "1h" w1h.Obs.Slo.label;
    Alcotest.(check (float 1e-9)) "1h burn" 2.0 w1h.Obs.Slo.burn_rate
  | l -> Alcotest.failf "expected 1 status with 2 windows, got %d" (List.length l));
  let samples = Obs.Slo.registry_samples ~now:1100.0 slo in
  let burn =
    List.find_opt
      (fun s ->
        s.Obs.Registry.name = "nbti_slo_burn_rate"
        && List.mem ("op", "analyze") s.Obs.Registry.labels
        && List.mem ("window", "5m") s.Obs.Registry.labels)
      samples
  in
  (match burn with
  | Some { Obs.Registry.value = Obs.Registry.Gauge v; _ } ->
    Alcotest.(check (float 1e-9)) "burn rate gauge" 2.0 v
  | _ -> Alcotest.fail "nbti_slo_burn_rate{op,window} sample missing");
  (* 10 minutes later the observations age out of the 5m window but
     stay in the hour (the clock only moves forward). *)
  match Obs.Slo.status ~now:1700.0 slo with
  | [ { Obs.Slo.windows = [ w5; w1h ]; _ } ] ->
    Alcotest.(check int) "5m window drained" 0 w5.Obs.Slo.total;
    Alcotest.(check (float 1e-9)) "empty window burns nothing" 0.0 w5.Obs.Slo.burn_rate;
    Alcotest.(check int) "1h window retains" 100 w1h.Obs.Slo.total
  | _ -> Alcotest.fail "unexpected status shape"

(* --- Tracefile: validate + multi-process merge --- *)

let test_tracefile_merge () =
  let file_a =
    Server.Json.of_string
      {|{"traceEvents":[
          {"name":"cli.request","ph":"X","pid":100,"tid":0,"ts":5.0,"dur":2.0,
           "args":{"trace_id":"t1"}}],
         "t0_us":1000.0,"droppedSpans":2}|}
  in
  let file_b =
    Server.Json.of_string
      {|{"traceEvents":[
          {"name":"process_name","ph":"M","pid":100,"tid":0,"args":{"name":"router"}},
          {"name":"request","ph":"X","pid":100,"tid":0,"ts":1.0,"dur":3.0,
           "args":{"trace_id":"t1"}}],
         "t0_us":1500.0,"droppedSpans":1}|}
  in
  let merged = Server.Tracefile.merge [ (Some "client", file_a); (None, file_b) ] in
  (match Server.Tracefile.validate merged with
  | Error m -> Alcotest.fail m
  | Ok s ->
    Alcotest.(check int) "spans survive" 2 s.Server.Tracefile.spans;
    Alcotest.(check int) "dropped summed" 3 s.Server.Tracefile.dropped;
    (* Both files used pid 100; the merge must keep them apart, carrying
       file B's own process_name and synthesizing file A's fallback. *)
    Alcotest.(check (list (pair int string))) "processes named and disambiguated"
      [ (1, "client"); (2, "router") ]
      (List.sort compare s.Server.Tracefile.processes));
  (match Server.Tracefile.parse merged with
  | Error m -> Alcotest.fail m
  | Ok p ->
    Alcotest.(check (list string)) "one shared trace id" [ "t1" ] (Server.Tracefile.trace_ids p);
    Alcotest.(check (float 1e-9)) "merged origin is the earliest input" 1000.0
      p.Server.Tracefile.t0_us;
    (* File B starts 500 us after file A's origin: its event must be
       rebased onto the shared timeline. *)
    let ts_of name =
      List.find_map
        (fun e ->
          match (Server.Json.member_opt "name" e, Server.Json.member_opt "ts" e) with
          | Some (Server.Json.String n), Some ts when n = name ->
            Some (Server.Json.to_float ts)
          | _ -> None)
        p.Server.Tracefile.events
    in
    Alcotest.(check (option (float 1e-9))) "file A keeps its ts" (Some 5.0)
      (ts_of "cli.request");
    Alcotest.(check (option (float 1e-9))) "file B rebased by +500" (Some 501.0)
      (ts_of "request"));
  (* validation failures are structural, not crashes *)
  (match Server.Tracefile.validate (Server.Json.Assoc []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "object without traceEvents should not validate");
  match
    Server.Tracefile.validate
      (Server.Json.Assoc [ ("traceEvents", Server.Json.List [ Server.Json.Int 3 ]) ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object event should not validate"

(* --- Log --- *)

let with_log_capture f =
  let path = Filename.temp_file "obs_log" ".jsonl" in
  let oc = open_out path in
  Obs.Log.set_channel oc;
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_channel stderr;
      Obs.Log.set_json false;
      Obs.Log.set_level (Some Obs.Log.Warn);
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      f ();
      flush oc;
      let ic = open_in path in
      let lines = In_channel.input_lines ic in
      close_in ic;
      lines)

let test_log_level_filtering () =
  let lines =
    with_log_capture (fun () ->
        Obs.Log.set_json true;
        Obs.Log.set_level (Some Obs.Log.Warn);
        Alcotest.(check bool) "debug filtered" false (Obs.Log.would_log Obs.Log.Debug);
        Alcotest.(check bool) "error passes" true (Obs.Log.would_log Obs.Log.Error);
        Obs.Log.debug "invisible";
        Obs.Log.info "also invisible";
        Obs.Log.warn "visible";
        Obs.Log.set_level None;
        Alcotest.(check bool) "quiet filters everything" false (Obs.Log.would_log Obs.Log.Error);
        Obs.Log.error "swallowed")
  in
  Alcotest.(check int) "only the warn record emitted" 1 (List.length lines);
  check_contains "warn record" (List.hd lines) "\"msg\":\"visible\""

let test_log_jsonl_shape () =
  let lines =
    with_log_capture (fun () ->
        Obs.Log.set_json true;
        Obs.Log.set_level (Some Obs.Log.Debug);
        Obs.Ctx.with_id "req-7" (fun () ->
            Obs.Log.info
              ~fields:[ ("gates", Obs.Fields.Int 160); ("circuit", Obs.Fields.Str "c432") ]
              "analyze done"))
  in
  match lines with
  | [ line ] -> (
    match Server.Json.of_string line with
    | Server.Json.Assoc fields ->
      Alcotest.(check bool) "ts present" true (List.mem_assoc "ts" fields);
      Alcotest.(check bool) "level=info" true
        (List.assoc_opt "level" fields = Some (Server.Json.String "info"));
      Alcotest.(check bool) "msg" true
        (List.assoc_opt "msg" fields = Some (Server.Json.String "analyze done"));
      Alcotest.(check bool) "cid" true
        (List.assoc_opt "cid" fields = Some (Server.Json.String "req-7"));
      Alcotest.(check bool) "int field" true
        (match List.assoc_opt "gates" fields with
        | Some (Server.Json.Int 160) -> true
        | Some (Server.Json.Float f) -> f = 160.0
        | _ -> false);
      Alcotest.(check bool) "string field" true
        (List.assoc_opt "circuit" fields = Some (Server.Json.String "c432"))
    | _ -> Alcotest.fail "record is not a JSON object")
  | lines -> Alcotest.failf "expected 1 record, got %d" (List.length lines)

let test_log_escaping () =
  let lines =
    with_log_capture (fun () ->
        Obs.Log.set_json true;
        Obs.Log.set_level (Some Obs.Log.Info);
        Obs.Log.info ~fields:[ (awkward, Obs.Fields.Str awkward) ] awkward)
  in
  match lines with
  | [ line ] ->
    let json = Obs.Json.of_string line in
    let str key = Obs.Json.to_string_exn (Obs.Json.member key json) in
    Alcotest.(check string) "msg" awkward (str "msg");
    Alcotest.(check string) "field" awkward (str awkward)
  | lines -> Alcotest.failf "expected 1 record, got %d" (List.length lines)

(* --- The bench record --- *)

(* BENCH.json: one schema, and a history whose first four entries are
   the per-PR records it replaced, numbers unchanged; the scaling gate
   reads its PR 3 baseline from the first. *)
let test_bench_record () =
  let json = Obs.Json.of_string (In_channel.with_open_bin "../BENCH.json" In_channel.input_all) in
  Alcotest.(check string) "schema" "nbti-bench/history"
    (Obs.Json.to_string_exn (Obs.Json.member "schema" json));
  let history = Obs.Json.to_list (Obs.Json.member "history" json) in
  let sources =
    List.map (fun e -> Obs.Json.to_string_exn (Obs.Json.member "source" e)) history
  in
  Alcotest.(check (list string)) "migrated entries"
    [ "BENCH_PR3.json"; "BENCH_PR6.json"; "BENCH_PR7.json"; "BENCH_PR8.json" ]
    (List.filteri (fun i _ -> i < 4) sources);
  List.iter
    (fun e ->
      Alcotest.(check bool) "no per-entry schema" true (Obs.Json.member "schema" e = Obs.Json.Null))
    history;
  let ns kernel =
    Obs.Json.to_float
      (Obs.Json.member ("nbti-repro/" ^ kernel) (Obs.Json.member "ns_per_run" (List.hd history)))
  in
  Alcotest.(check (float 0.0)) "PR 3 variation sample" 1_740_786.0
    (ns "fig12: one Monte-Carlo variation sample on c432");
  Alcotest.(check (float 0.0)) "PR 3 fresh STA" 343_619.2 (ns "table4: fresh STA pass on c432")

let test_log_level_of_string () =
  (match Obs.Log.level_of_string "DEBUG" with
  | Ok (Some Obs.Log.Debug) -> ()
  | _ -> Alcotest.fail "DEBUG should parse");
  (match Obs.Log.level_of_string "quiet" with
  | Ok None -> ()
  | _ -> Alcotest.fail "quiet should parse to None");
  match Obs.Log.level_of_string "loud" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus level should be rejected"

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "quantile clamping" `Quick test_quantile_clamping;
          Alcotest.test_case "concurrent domains" `Quick test_concurrent_record;
        ] );
      ( "registry",
        [
          Alcotest.test_case "prometheus escaping" `Quick test_prometheus_escaping;
          Alcotest.test_case "histogram + family grouping" `Quick
            test_prometheus_histogram_and_grouping;
          Alcotest.test_case "metrics round-trip" `Quick test_prometheus_roundtrip_from_metrics;
          Alcotest.test_case "render/of_prometheus round trip" `Quick
            test_prometheus_parse_roundtrip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting, paths, cids" `Quick test_trace_nesting;
          Alcotest.test_case "ring capacity + dropped" `Quick test_trace_capacity_drop;
          Alcotest.test_case "exceptions + disabled" `Quick test_trace_exception_and_disabled;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_json;
          Alcotest.test_case "chrome export escaping round trip" `Quick test_trace_escaping;
          Alcotest.test_case "served trace_export = to_chrome" `Quick test_trace_export_served;
          Alcotest.test_case "flame summary" `Quick test_flame_summary;
          Alcotest.test_case "ids, propagation, remote parents" `Quick
            test_trace_ids_and_propagation;
          Alcotest.test_case "drop counter registry sample" `Quick
            test_trace_drop_counter_sample;
        ] );
      ( "tracefile",
        [ Alcotest.test_case "multi-process merge" `Quick test_tracefile_merge ] );
      ( "slo",
        [
          Alcotest.test_case "spec parsing" `Quick test_slo_parse_spec;
          Alcotest.test_case "burn-rate windows" `Quick test_slo_burn_rates;
        ] );
      ( "log",
        [
          Alcotest.test_case "level filtering" `Quick test_log_level_filtering;
          Alcotest.test_case "jsonl shape" `Quick test_log_jsonl_shape;
          Alcotest.test_case "level parsing" `Quick test_log_level_of_string;
          Alcotest.test_case "jsonl escaping round trip" `Quick test_log_escaping;
        ] );
      ("bench record", [ Alcotest.test_case "BENCH.json history" `Quick test_bench_record ]);
    ]
