(* In-process replays of a workload's request sequence: the response
   oracle, and the traced run that splits a request's time across the
   program's layers.

   The traced run replays the same requests in three variants:
   - plain: Server.Service.handle_line with no span collector installed;
   - traced: the same under a collector, inside a "service.handle_line"
     span;
   - layers: the request pipeline re-assembled from the layers' public
     functions (JSON decode, circuit resolution, digest and cache key,
     cache, Flow.Platform, Calibrate.Engine, encode), each call inside a
     benchmark-owned span.
   traced minus plain is the tracing overhead; traced minus the sum of the
   layers is the time no layer accounts for. Spans live only in this file:
   the program itself is not instrumented for the benchmark. *)

module Json = Server.Json
module Protocol = Server.Protocol

let now = Unix.gettimeofday

(* --- response normalization and the oracle --- *)

(* The correlation id differs per request and [cached] between a hit and
   the miss that filled it; everything else must match byte for byte. *)
let rec strip_cached = function
  | Json.Assoc kvs ->
    Json.Assoc (List.filter_map (fun (k, v) -> if k = "cached" then None else Some (k, strip_cached v)) kvs)
  | Json.List l -> Json.List (List.map strip_cached l)
  | j -> j

let normalize line =
  match Json.of_string line with
  | Json.Assoc kvs -> Json.to_string (strip_cached (Json.Assoc (List.remove_assoc "id" kvs)))
  | j -> Json.to_string j
  | exception Json.Parse_error _ -> line

(* [pairs] are (request index, response line) as observed on the wire;
   each request is answered once by a fresh in-process service. Returns
   the positions in [pairs] whose response differs. *)
let oracle (w : Workload.t) pairs =
  let service = Server.Service.create () in
  let expected = Hashtbl.create 64 in
  let expect i =
    match Hashtbl.find_opt expected i with
    | Some e -> e
    | None ->
      let e = normalize (Server.Service.handle_line service w.lines.(i)) in
      Hashtbl.add expected i e;
      e
  in
  List.concat (List.mapi (fun pos (i, response) -> if normalize response <> expect i then [ pos ] else []) pairs)

(* --- layer spans --- *)

let layer_names =
  [
    "json.decode";
    "circuit.resolve";
    "netlist.digest";
    "cache.lookup";
    "platform.prepare";
    "platform.analyze";
    "platform.optimize_ivc";
    "platform.optimize_st";
    "calibrate.run";
    "protocol.encode";
  ]

let words : (string, float ref) Hashtbl.t = Hashtbl.create 16

(* Minor words are counted inside the span, so the span's own record is
   not charged to the layer. The pool runs on the calling domain
   (NBTI_JOBS=1), so Gc.minor_words sees all of a layer's allocation. *)
let layer name f =
  Obs.Trace.with_span ~cat:"perfbench" name (fun () ->
      let w0 = Gc.minor_words () in
      let r = f () in
      let acc =
        match Hashtbl.find_opt words name with
        | Some a -> a
        | None ->
          let a = ref 0.0 in
          Hashtbl.add words name a;
          a
      in
      acc := !acc +. (Gc.minor_words () -. w0);
      r)

(* --- C: the request pipeline assembled from public functions --- *)

type pipeline = {
  results : Json.t Server.Cache.t;
  prepared : Flow.Platform.prepared Server.Cache.t;
  pool : Parallel.Pool.t;
}

(* The service's default capacities: 256 results within 64 MiB of
   serialized JSON, 32 prepared pipelines. *)
let pipeline () =
  {
    results =
      Server.Cache.create ~capacity:256 ~max_bytes:(64 * 1024 * 1024)
        ~weight:(fun j -> String.length (Json.to_string j) + 64)
        ();
    prepared = Server.Cache.create ~capacity:32 ();
    pool = Parallel.Pool.default ();
  }

let resolve = function
  | Protocol.Named name -> Circuit.Generators.by_name name
  | Protocol.Bench text -> begin
    match Circuit.Bench_io.parse_result ~name:"inline" text with
    | Ok net -> net
    | Error e -> failwith (Circuit.Bench_io.error_to_string e)
  end

let standby_state = function
  | Protocol.Worst -> Aging.Circuit_aging.Standby_all_stressed
  | Protocol.Best -> Aging.Circuit_aging.Standby_all_relaxed
  | Protocol.Vector v -> Aging.Circuit_aging.Standby_vector v

let cached payload hit =
  match payload with Json.Assoc f -> Json.Assoc (f @ [ ("cached", Json.Bool hit) ]) | j -> j

let lookup p key compute =
  match layer "cache.lookup" (fun () -> Server.Cache.find p.results key) with
  | Some payload -> cached payload true
  | None ->
    let payload = compute () in
    layer "cache.lookup" (fun () -> Server.Cache.add p.results key payload);
    cached payload false

let prepared_for p cfg net ~digest =
  let key = digest ^ "|" ^ Flow.Platform.prepare_fingerprint cfg in
  match layer "cache.lookup" (fun () -> Server.Cache.find p.prepared key) with
  | Some prepared -> prepared
  | None ->
    let prepared = layer "platform.prepare" (fun () -> Flow.Platform.prepare cfg net) in
    layer "cache.lookup" (fun () -> Server.Cache.add p.prepared key prepared);
    prepared

let run_job p job =
  let circuit, flow =
    match job with
    | Protocol.Analyze { circuit; flow; _ }
    | Protocol.Ivc_search { circuit; flow; _ }
    | Protocol.Sleep_sizing { circuit; flow; _ } ->
      (circuit, flow)
  in
  let net = layer "circuit.resolve" (fun () -> resolve circuit) in
  let digest, key =
    layer "netlist.digest" (fun () ->
        let d = Circuit.Netlist.digest net in
        (d, Protocol.job_cache_key job ~circuit_digest:d))
  in
  lookup p key (fun () ->
      let cfg = { (Protocol.platform_config flow) with Flow.Platform.pool = Some p.pool } in
      let prepared = prepared_for p cfg net ~digest in
      let payload kind (field, body) =
        Json.Assoc
          [
            ("kind", Json.String kind);
            ("circuit", Json.String net.Circuit.Netlist.name);
            ("digest", Json.String digest);
            ("fingerprint", Json.String (Flow.Platform.config_fingerprint cfg));
            (field, body);
          ]
      in
      match job with
      | Protocol.Analyze { standby; _ } ->
        let a =
          layer "platform.analyze" (fun () ->
              Flow.Platform.analyze cfg prepared ~standby:(standby_state standby))
        in
        layer "protocol.encode" (fun () -> payload "analysis" ("analysis", Protocol.json_of_analysis a))
      | Protocol.Ivc_search { seed; pool; tolerance; _ } ->
        let r, s =
          layer "platform.optimize_ivc" (fun () ->
              Flow.Platform.optimize_ivc cfg prepared ~rng:(Physics.Rng.create ~seed) ~pool ?tolerance ())
        in
        layer "protocol.encode" (fun () -> payload "ivc" ("ivc", Protocol.json_of_ivc r s))
      | Protocol.Sleep_sizing { style; beta; vth_st; nbti_aware; _ } ->
        let r =
          layer "platform.optimize_st" (fun () ->
              Flow.Platform.optimize_st cfg prepared ~style ~beta ?vth_st ~nbti_aware ())
        in
        layer "protocol.encode" (fun () -> payload "sleep" ("sleep", Protocol.json_of_st r)))

let run_calibrate p (spec : Protocol.calibrate_spec) =
  let key = layer "netlist.digest" (fun () -> Protocol.calibrate_cache_key spec) in
  lookup p key (fun () ->
      let posterior =
        layer "calibrate.run" (fun () ->
            Calibrate.Engine.run ~pool:p.pool spec.Protocol.config spec.Protocol.dataset)
      in
      layer "protocol.encode" (fun () ->
          Protocol.json_of_posterior ~dataset:spec.Protocol.dataset posterior))

let handle p line =
  match layer "json.decode" (fun () -> Protocol.envelope_of_json (Json.of_string line)) with
  | Error e -> failwith ("replay: request rejected: " ^ e.Protocol.message)
  | Ok { Protocol.id; request; _ } ->
    let result =
      match request with
      | Protocol.Single job -> run_job p job
      | Protocol.Batch jobs ->
        Json.Assoc [ ("kind", Json.String "batch"); ("results", Json.List (List.map (run_job p) jobs)) ]
      | Protocol.Calibrate spec -> run_calibrate p spec
      | _ -> failwith "replay: only analysis and calibrate ops are replayed"
    in
    layer "protocol.encode" (fun () -> Json.to_string (Protocol.ok_response ~id result))

(* --- the router hop --- *)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let direct ep line =
  let client = Server.Client.create ep in
  Fun.protect
    ~finally:(fun () -> Server.Client.close client)
    (fun () ->
      match Server.Client.attempt client line with
      | Server.Client.Done response -> response
      | Server.Client.Retryable { reason; _ } -> failwith ("replay: backend call failed: " ^ reason))

(* Same cache hit, two paths: a fresh connection straight to a backend,
   and Fleet.Router.handle_line in this process forwarding to the owner.
   Every sampled line is first sent to every backend, so both paths hit
   whichever backend answers. Timed untraced; one extra traced round puts
   router spans into the trace file. Returns (routed p50, direct p50,
   samples) in milliseconds. *)
let router_hop endpoints lines ~rounds =
  let router = Fleet.Router.create endpoints in
  List.iter (fun ep -> Array.iter (fun l -> ignore (direct ep l)) lines) endpoints;
  Array.iter (fun l -> ignore (Fleet.Router.handle_line router l)) lines;
  let ep = List.hd endpoints in
  let collector = Obs.Trace.installed () in
  Obs.Trace.uninstall ();
  let routed = ref [] and straight = ref [] in
  for _ = 1 to rounds do
    Array.iter
      (fun l ->
        let t0 = now () in
        ignore (direct ep l);
        let t1 = now () in
        ignore (Fleet.Router.handle_line router l);
        let t2 = now () in
        straight := ((t1 -. t0) *. 1e3) :: !straight;
        routed := ((t2 -. t1) *. 1e3) :: !routed)
      lines
  done;
  Option.iter Obs.Trace.install collector;
  Array.iter
    (fun l ->
      layer "client.direct" (fun () -> ignore (direct ep l));
      layer "router.handle_line" (fun () -> ignore (Fleet.Router.handle_line router l)))
    lines;
  (median (Array.of_list !routed), median (Array.of_list !straight), List.length !routed)

(* --- the traced run --- *)

(* Each variant runs in its own process, so the program's process-wide
   memos (compiled arenas, timing constants) start cold in every variant
   exactly as in a fresh server, and no variant warms them for another.
   The processes run in lock-step — run.py hands each the same
   request in turn — so load on the host hits all variants alike. *)
type variant = Plain | Traced | Layers

let variants = [ ("plain", Plain); ("traced", Traced); ("layers", Layers) ]

(* Serves the step protocol on stdin/stdout: after the workload's prewarm
   it prints "ready"; each input line "i" replays request i of the
   connections' sequences interleaved and prints its wall time in ms;
   "end" finishes with one JSON record — a digest of the normalized
   responses (equal across variants when the assembled pipeline answers
   like the service) and, for the layers variant, per-layer totals and,
   given backends, the router hop. *)
let replay (w : Workload.t) ~variant:name ~endpoints ~trace_out =
  let variant =
    match List.assoc_opt name variants with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "unknown variant %S (expected plain, traced or layers)" name)
  in
  let handle_line =
    match variant with
    | Plain | Traced -> Server.Service.handle_line (Server.Service.create ())
    | Layers -> handle (pipeline ())
  in
  Array.iter (fun i -> ignore (handle_line w.lines.(i))) w.prewarm;
  Hashtbl.reset words;
  let collector = Obs.Trace.create ~capacity:262144 () in
  let call =
    match variant with
    | Plain -> handle_line
    | Traced ->
      Obs.Trace.install collector;
      fun line -> Obs.Trace.with_span ~cat:"perfbench" "service.handle_line" (fun () -> handle_line line)
    | Layers ->
      Obs.Trace.install collector;
      handle_line
  in
  let responses = Buffer.create 4096 in
  let count = ref 0 in
  print_endline "ready";
  let rec step () =
    match input_line stdin with
    | "end" -> ()
    | s ->
      let i = int_of_string s in
      let k = Array.length w.conns in
      let line = w.lines.(w.conns.(i mod k).(i / k)) in
      let t0 = now () in
      let response = call line in
      let ms = (now () -. t0) *. 1e3 in
      Buffer.add_string responses (normalize response);
      Buffer.add_char responses '\n';
      incr count;
      print_endline (Printf.sprintf "%.17g" ms);
      step ()
  in
  step ();
  let hop =
    match (variant, endpoints) with
    | Layers, (_ :: _ as eps) -> Some (router_hop eps (Array.map (fun i -> w.lines.(i)) w.hop) ~rounds:8)
    | _ -> None
  in
  Obs.Trace.uninstall ();
  let spans = Obs.Trace.spans collector in
  if variant <> Plain then
    Obs.Trace.write_chrome_json ~process_name:("perfbench-" ^ name) collector ~path:trace_out;
  let n = float_of_int (max 1 !count) in
  let layers =
    List.map
      (fun name ->
        let total, calls =
          List.fold_left
            (fun (total, calls) (s : Obs.Trace.span) ->
              if s.cat = "perfbench" && s.name = name then (total +. (s.dur_us /. 1e3), calls + 1)
              else (total, calls))
            (0.0, 0) spans
        in
        let words = match Hashtbl.find_opt words name with Some a -> !a | None -> 0.0 in
        ( name,
          Json.Assoc
            [
              ("ms", Json.Float (total /. n));
              ("calls", Json.Int calls);
              ("minor_words", Json.Float (words /. n));
            ] ))
      layer_names
  in
  Json.Assoc
    ([
       ("requests", Json.Int !count);
       ("responses_md5", Json.String (Digest.to_hex (Digest.string (Buffer.contents responses))));
       ("spans", Json.Int (List.length spans));
       ("dropped_spans", Json.Int (Obs.Trace.dropped collector));
     ]
    @ (if variant = Layers then [ ("layers", Json.Assoc layers) ] else [])
    @
    match hop with
    | None -> []
    | Some (routed, straight, samples) ->
      [
        ( "hop",
          Json.Assoc
            [
              ("routed_p50_ms", Json.Float routed);
              ("direct_p50_ms", Json.Float straight);
              ("samples", Json.Int samples);
            ] );
      ])
