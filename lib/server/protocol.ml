module F = Request_fields

let version = 1

type circuit_spec = Named of string | Bench of string
type standby_spec = F.standby_spec = Worst | Best | Vector of bool array

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

let flow =
  F.obj (fun ras t_active t_standby years input_sp sp_method leakage_temp pbti_scale ->
      { ras; t_active; t_standby; years; input_sp; sp_method; leakage_temp; pbti_scale })
  |> F.mem F.ras (fun s -> s.ras)
  |> F.mem F.t_active (fun s -> s.t_active)
  |> F.mem F.t_standby (fun s -> s.t_standby)
  |> F.mem F.years (fun s -> s.years)
  |> F.mem F.input_sp (fun s -> s.input_sp)
  |> F.mem F.sp_method (fun s -> s.sp_method)
  |> F.mem F.leakage_temp (fun s -> s.leakage_temp)
  |> F.mem F.pbti_scale (fun s -> s.pbti_scale)

let default_flow_spec = F.decode ~extra:[] flow (Json.Assoc [])

let platform_config spec =
  let aging =
    Aging.Circuit_aging.default_config ~ras:spec.ras ~t_active:spec.t_active
      ~t_standby:spec.t_standby
      ~time:(Physics.Units.years spec.years)
      ?pbti_scale:spec.pbti_scale ()
  in
  {
    Flow.Platform.aging;
    input_sp = spec.input_sp;
    sp_method = spec.sp_method;
    leakage_temp = spec.leakage_temp;
    pool = None;
    budget = Parallel.Budget.unlimited;
  }

let standby_state net = function
  | Worst -> Ok Aging.Circuit_aging.Standby_all_stressed
  | Best -> Ok Aging.Circuit_aging.Standby_all_relaxed
  | Vector v ->
    let n = Circuit.Netlist.n_primary_inputs net and bits = Array.length v in
    if bits = n then Ok (Aging.Circuit_aging.Standby_vector v)
    else Error (Printf.sprintf "standby vector has %d bits, circuit has %d primary inputs" bits n)

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

let job_circuit = function
  | Analyze { circuit; _ } | Ivc_search { circuit; _ } | Sleep_sizing { circuit; _ } -> circuit

let job_flow = function
  | Analyze { flow; _ } | Ivc_search { flow; _ } | Sleep_sizing { flow; _ } -> flow

let circuit_name = function Named name -> name | Bench _ -> "inline"

let config = F.field "config" default_flow_spec (F.Object flow) "The operating point and flow settings."

(* Each job's members besides "op" and "circuit"; the getters are only
   ever applied to jobs of their own op. *)
let job_codecs =
  [
    ( "analyze",
      F.obj (fun flow standby circuit -> Analyze { circuit; flow; standby })
      |> F.mem config job_flow
      |> F.mem F.standby (function Analyze j -> j.standby | _ -> assert false) );
    ( "ivc_search",
      F.obj (fun flow seed pool tolerance circuit ->
          Ivc_search { circuit; flow; seed; pool; tolerance })
      |> F.mem config job_flow
      |> F.mem F.ivc_seed (function Ivc_search j -> j.seed | _ -> assert false)
      |> F.mem F.pool (function Ivc_search j -> j.pool | _ -> assert false)
      |> F.mem F.tolerance (function Ivc_search j -> j.tolerance | _ -> assert false) );
    ( "sleep_sizing",
      F.obj (fun flow style beta vth_st nbti_aware circuit ->
          Sleep_sizing { circuit; flow; style; beta; vth_st; nbti_aware })
      |> F.mem config job_flow
      |> F.mem F.style (function Sleep_sizing j -> j.style | _ -> assert false)
      |> F.mem F.beta (function Sleep_sizing j -> j.beta | _ -> assert false)
      |> F.mem F.vth_st (function Sleep_sizing j -> j.vth_st | _ -> assert false)
      |> F.mem F.nbti_aware (function Sleep_sizing j -> j.nbti_aware | _ -> assert false) );
  ]

type calibrate_spec = {
  dataset : Calibrate.Dataset.t;
  config : Calibrate.Engine.config;
}

let calibrate_engine_config sampler particles n_chains warmup samples thin seed ci_level predict =
  let open Calibrate.Engine in
  let sampler = match sampler with `Mh -> Mh | `Importance -> Importance { particles } in
  { default_config with sampler; n_chains; warmup; samples; thin; seed; ci_level; predict }

let calibrate_config =
  let open Calibrate.Engine in
  F.obj calibrate_engine_config
  |> F.mem F.sampler (fun c -> match c.sampler with Mh -> `Mh | Importance _ -> `Importance)
  |> F.mem F.particles (fun c ->
         match c.sampler with Importance { particles } -> particles | Mh -> F.particles.default)
  |> F.mem F.chains (fun c -> c.n_chains)
  |> F.mem F.warmup (fun c -> c.warmup)
  |> F.mem F.samples (fun c -> c.samples)
  |> F.mem F.thin (fun c -> c.thin)
  |> F.mem F.calibrate_seed (fun c -> c.seed)
  |> F.mem F.ci_level (fun c -> c.ci_level)
  |> F.mem F.predict (fun c -> c.predict)

let request_fields =
  List.map (fun (op, codec) -> (op, F.members codec)) job_codecs
  @ [ ("calibrate", F.members calibrate_config) ]

type request =
  | Single of job
  | Batch of job list
  | Calibrate of calibrate_spec
  | Health
  | Stats
  | Metrics
  | Cache_export of { max_entries : int }
  | Cache_import of { entries : (string * Json.t) list }
  | Trace_export of { clear : bool }
  | Cluster_metrics

type envelope = {
  id : string option;
  timeout_ms : int option;
  trace : Obs.Ctx.trace option;
  request : request;
}

(* The single authoritative operation table: the decoder's unknown-op
   error and the [stats] endpoint both render it, so adding a wire op
   here is what makes it show up in both places. *)
let ops =
  [
    ("analyze", "full aging analysis of one circuit");
    ("ivc_search", "input-vector-control co-optimization search");
    ("sleep_sizing", "sleep-transistor insertion and sizing");
    ("calibrate", "Bayesian NBTI parameter calibration from measurements");
    ("batch", "several analyze/ivc_search/sleep_sizing jobs in one request");
    ("health", "liveness probe");
    ("stats", "service statistics snapshot");
    ("metrics", "Prometheus text-exposition snapshot");
    ("cache_export", "snapshot of the hottest result-cache entries (warm handoff)");
    ("cache_import", "seed the result cache from exported entries (warm handoff)");
    ("trace_export", "drain the in-process span ring as Chrome trace JSON");
    ("cluster_metrics", "router-only: federated Prometheus metrics across the fleet");
  ]

let supported_ops = List.map fst ops

let op_name = function
  | Single (Analyze _) -> "analyze"
  | Single (Ivc_search _) -> "ivc_search"
  | Single (Sleep_sizing _) -> "sleep_sizing"
  | Batch _ -> "batch"
  | Calibrate _ -> "calibrate"
  | Health -> "health"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Cache_export _ -> "cache_export"
  | Cache_import _ -> "cache_import"
  | Trace_export _ -> "trace_export"
  | Cluster_metrics -> "cluster_metrics"

type error_code =
  | Parse_error
  | Unsupported_version
  | Bad_request
  | Invalid_request
  | Deadline_exceeded
  | Overloaded
  | Fleet_degraded
  | Internal_error

let error_code_string = function
  | Parse_error -> "parse_error"
  | Unsupported_version -> "unsupported_version"
  | Bad_request -> "bad_request"
  | Invalid_request -> "invalid_request"
  | Deadline_exceeded -> "deadline_exceeded"
  | Overloaded -> "overloaded"
  | Fleet_degraded -> "fleet_degraded"
  | Internal_error -> "internal_error"

(* Transient errors: an identical retry may succeed because the failure
   came from server state (load) rather than the request itself. All
   operations are idempotent (pure analyses), so retrying is always
   safe; this classifies only whether it is *useful*. [Fleet_degraded]
   is the router's "no live owner for this hash range right now" — a
   probe cycle later the range usually has one again. *)
let retryable_code_string s =
  s = error_code_string Overloaded || s = error_code_string Fleet_degraded

(* --- Decoding --- *)

type decode_error = {
  code : error_code;
  message : string;
  details : (string * Json.t) list;
}

exception Bad of string
exception Bad_structured of decode_error

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let unknown_op op =
  raise
    (Bad_structured
       {
         code = Invalid_request;
         message =
           Printf.sprintf "unknown op %S; supported ops: %s" op
             (String.concat ", " supported_ops);
         details =
           [
             ( "supported_ops",
               Json.List (List.map (fun o -> Json.String o) supported_ops) );
           ];
       })


let circuit_of_json = function
  | Json.String name -> Named name
  | Json.Assoc _ as o -> begin
    match Json.member_opt "bench" o with
    | Some (Json.String text) -> Bench text
    | _ -> bad "circuit object must have a \"bench\" text field"
  end
  | _ -> bad "circuit must be a name or {\"bench\": ...}"

(* The members a request envelope carries besides its op's own. *)
let envelope_members = [ "v"; "id"; "op"; "timeout_ms"; "trace" ]

let job_of_json ~extra o =
  let op =
    match Json.member_opt "op" o with
    | Some (Json.String op) -> op
    | _ -> bad "missing op"
  in
  match List.assoc_opt op job_codecs with
  | None -> unknown_op op
  | Some codec ->
    let circuit =
      match Json.member_opt "circuit" o with Some c -> circuit_of_json c | None -> bad "missing circuit"
    in
    F.decode ~extra:("circuit" :: extra) codec o circuit

(* --- Calibrate decoding --- *)

let invalid_dataset (e : Calibrate.Dataset.error) =
  raise
    (Bad_structured
       {
         code = Invalid_request;
         message = "dataset: " ^ e.Calibrate.Dataset.message;
         details =
           (match e.Calibrate.Dataset.line with
           | Some l -> [ ("line", Json.Int l) ]
           | None -> []);
       })

let point_of_json = function
  | Json.Assoc _ as o ->
    let f key =
      match Json.member_opt key o with Some v -> Json.to_float v | None -> bad "measurement missing %S" key
    in
    { Calibrate.Dataset.time_s = f "time_s"; temp_k = f "temp_k"; vdd_v = f "vdd_v"; dvth_v = f "dvth_v" }
  | _ -> bad "measurements must be objects with time_s/temp_k/vdd_v/dvth_v"

let calibrate_of_json o =
  let dataset =
    match (Json.member_opt "measurements" o, Json.member_opt "csv" o) with
    | Some (Json.List items), None -> Calibrate.Dataset.v (Array.of_list (List.map point_of_json items))
    | None, Some (Json.String csv) -> Calibrate.Dataset.of_csv csv
    | Some _, None -> bad "measurements must be an array"
    | None, Some _ -> bad "csv must be a string"
    | Some _, Some _ -> bad "provide either \"measurements\" or \"csv\", not both"
    | None, None -> bad "calibrate requires \"measurements\" or \"csv\""
  in
  let dataset = match dataset with Ok d -> d | Error e -> invalid_dataset e in
  let config =
    F.decode ~extra:("measurements" :: "csv" :: envelope_members) calibrate_config o
  in
  (* The cross-field rule (total iterations) is the engine's own. *)
  (match Calibrate.Engine.validate config with
  | Ok () -> ()
  | Error m -> bad "%s" m);
  { dataset; config }

let request_of_json op json =
  match op with
  | "health" -> Health
  | "stats" -> Stats
  | "metrics" -> Metrics
  | "cluster_metrics" -> Cluster_metrics
  | "trace_export" -> Trace_export { clear = F.member F.clear json }
  | "cache_export" -> Cache_export { max_entries = F.member F.max_entries json }
  | "cache_import" -> begin
    match Json.member_opt "entries" json with
    | Some (Json.List items) ->
      let entry item =
        match (Json.member_opt "key" item, Json.member_opt "payload" item) with
        | Some (Json.String k), Some payload -> (k, payload)
        | _ -> bad "cache_import entries must be {\"key\":...,\"payload\":...} objects"
      in
      Cache_import { entries = List.map entry items }
    | _ -> bad "cache_import requires an \"entries\" array"
  end
  | "calibrate" -> Calibrate (calibrate_of_json json)
  | "batch" ->
    let jobs =
      match Json.member_opt "jobs" json with
      | Some (Json.List jobs) -> List.map (job_of_json ~extra:[ "op" ]) jobs
      | _ -> bad "batch requires a \"jobs\" array"
    in
    if jobs = [] then bad "batch with no jobs";
    Batch jobs
  | _ -> Single (job_of_json ~extra:envelope_members json)

let envelope_of_json json =
  let fail code message = Error { code; message; details = [] } in
  try
    match json with
    | Json.Assoc _ -> begin
      let id = F.member F.id json in
      let timeout_ms = F.member F.timeout_ms json in
      let trace =
        (* W3C-traceparent-shaped: hex trace_id minted at the client
           edge, parent_span the sender's open span. Malformed objects
           are a bad_request, a missing one simply starts no trace. *)
        match Json.member_opt "trace" json with
        | None -> None
        | Some tj -> begin
          match Json.member_opt "trace_id" tj with
          | Some (Json.String tid) when tid <> "" ->
            let parent_span =
              match Json.member_opt "parent_span" tj with
              | Some (Json.String p) when p <> "" -> Some p
              | Some _ -> bad "trace.parent_span must be a non-empty string"
              | None -> None
            in
            Some { Obs.Ctx.trace_id = tid; parent_span }
          | Some _ | None -> bad "trace requires a non-empty string \"trace_id\""
          | exception Json.Type_error _ -> bad "trace must be an object"
        end
      in
      match Json.member_opt "v" json with
      | Some (Json.Int v) when v = version -> begin
        match Json.member_opt "op" json with
        | Some (Json.String op) -> Ok { id; timeout_ms; trace; request = request_of_json op json }
        | _ -> fail Bad_request "missing op"
      end
      | Some (Json.Int v) ->
        fail Unsupported_version
          (Printf.sprintf "protocol version %d not supported (want %d)" v version)
      | _ -> fail Unsupported_version "missing protocol version field \"v\""
    end
    | _ -> fail Bad_request "request must be a JSON object"
  with
  | Bad m -> fail Bad_request m
  | Bad_structured e -> Error e
  | F.Error { wrong_type = true; field; message; _ } -> fail Bad_request (field ^ " " ^ message)
  | Json.Type_error m -> fail Bad_request m
  | F.Error { field; message; bounds; _ } ->
    let message = field ^ " " ^ message in
    Error { code = Invalid_request; message; details = ("field", Json.String field) :: bounds }

(* --- Encoding (client side) --- *)

let json_of_circuit = function
  | Named n -> Json.String n
  | Bench text -> Json.Assoc [ ("bench", Json.String text) ]

let standby_string s = Json.to_string_exn (F.write F.standby.F.kind s)
let style_string s = Json.to_string_exn (F.write F.style.F.kind s)

(* A job's members besides "op". *)
let job_fields job =
  ("circuit", json_of_circuit (job_circuit job))
  :: F.encode (List.assoc (op_name (Single job)) job_codecs) job

let opt name json = Option.fold ~none:[] ~some:(fun v -> [ (name, json v) ])

let json_of_trace { Obs.Ctx.trace_id; parent_span } =
  Json.Assoc (("trace_id", Json.String trace_id) :: opt "parent_span" (fun p -> Json.String p) parent_span)

let json_of_envelope { id; timeout_ms; trace; request } =
  let members =
    match request with
    | Health | Stats | Metrics | Cluster_metrics -> []
    | Trace_export { clear } -> [ ("clear", Json.Bool clear) ]
    | Cache_export { max_entries } -> [ ("max_entries", Json.Int max_entries) ]
    | Cache_import { entries } ->
      let entry (k, payload) = Json.Assoc [ ("key", Json.String k); ("payload", payload) ] in
      [ ("entries", Json.List (List.map entry entries)) ]
    | Single job -> job_fields job
    | Calibrate { dataset; config } ->
      ("csv", Json.String (Calibrate.Dataset.to_csv dataset)) :: F.encode calibrate_config config
    | Batch jobs ->
      let job j = Json.Assoc (("op", Json.String (op_name (Single j))) :: job_fields j) in
      [ ("jobs", Json.List (List.map job jobs)) ]
  in
  Json.Assoc
    ((("v", Json.Int version) :: opt "id" (fun s -> Json.String s) id)
    @ opt "timeout_ms" (fun ms -> Json.Int ms) timeout_ms
    @ opt "trace" json_of_trace trace
    @ (("op", Json.String (op_name request)) :: members))

(* --- Responses --- *)

let response_base id =
  ("v", Json.Int version) :: (match id with None -> [] | Some id -> [ ("id", Json.String id) ])

let ok_response ~id result =
  Json.Assoc (response_base id @ [ ("ok", Json.Bool true); ("result", result) ])

(* A result payload as [Json.to_string] printed it, with "cached"
   appended the way [Assoc (fields @ [ ("cached", Bool hit) ])] would
   print: the closing brace moves past the new member, and the payload
   is copied once instead of printed again. A payload that is not an
   object (only [cache_import] can store one) is answered as it is. *)
let cached_result payload ~hit =
  let n = String.length payload in
  if n < 2 || payload.[0] <> '{' then Json.Raw payload
  else begin
    (* "{}" is the only printed object of two bytes *)
    let sep = if n = 2 then "" else "," in
    let member = if hit then {|"cached":true}|} else {|"cached":false}|} in
    Json.Raw (String.sub payload 0 (n - 1) ^ sep ^ member)
  end

(* What [ok_response ~id:None] prints before its result. *)
let ok_prefix = Printf.sprintf {|{"v":%d,"ok":true,"result":|} version

(* When the parse has exactly these three members and [line] starts
   with [ok_prefix] and ends with the object's closing brace, the bytes
   in between are the result, perhaps padded with whitespace: they are
   forwarded as they are. Any other layout is answered from the parse. *)
let forwarded_result ~line json =
  match json with
  | Json.Assoc [ ("v", _); ("ok", Json.Bool true); ("result", result) ] ->
    let p = String.length ok_prefix and n = String.length line in
    if n > p + 1 && String.starts_with ~prefix:ok_prefix line && line.[n - 1] = '}' then
      Json.Raw (String.sub line p (n - p - 1))
    else result
  | _ -> Json.member "result" json

let error_response ~id ?(details = []) code message =
  Json.Assoc
    (response_base id
    @ [
        ("ok", Json.Bool false);
        ( "error",
          Json.Assoc
            ([ ("code", Json.String (error_code_string code)); ("message", Json.String message) ]
            @ details) );
      ])

let error_detail_int response key =
  match Json.member_opt "error" response with
  | Some e -> begin
    match Json.member_opt key e with
    | Some v -> ( try Some (Json.to_int v) with Json.Type_error _ -> None)
    | None -> None
  end
  | None -> None

let response_result json =
  if Json.to_bool (Json.member "ok" json) then Ok (Json.member "result" json)
  else begin
    let e = Json.member "error" json in
    Error (Json.to_string_exn (Json.member "code" e), Json.to_string_exn (Json.member "message" e))
  end

let json_of_analysis (a : Flow.Platform.analysis) =
  let s = a.Flow.Platform.stats in
  Json.Assoc
    [
      ( "stats",
        Json.Assoc
          [
            ("name", Json.String s.Circuit.Netlist.name);
            ("n_pi", Json.Int s.Circuit.Netlist.n_pi);
            ("n_po", Json.Int s.Circuit.Netlist.n_po);
            ("n_gates", Json.Int s.Circuit.Netlist.n_gates);
            ("depth", Json.Int s.Circuit.Netlist.depth);
            ( "by_cell",
              Json.Assoc (List.map (fun (c, n) -> (c, Json.Int n)) s.Circuit.Netlist.by_cell) );
          ] );
      ("fresh_delay_s", Json.Float a.Flow.Platform.fresh_delay);
      ("aged_delay_s", Json.Float a.Flow.Platform.aged_delay);
      ("degradation", Json.Float a.Flow.Platform.degradation);
      ("max_dvth_v", Json.Float a.Flow.Platform.max_dvth);
      ("standby_leakage_a", Json.Float a.Flow.Platform.standby_leakage);
      ("active_leakage_a", Json.Float a.Flow.Platform.active_leakage);
    ]

let analysis_of_json json =
  let s = Json.member "stats" json in
  {
    Flow.Platform.stats =
      {
        Circuit.Netlist.name = Json.to_string_exn (Json.member "name" s);
        n_pi = Json.to_int (Json.member "n_pi" s);
        n_po = Json.to_int (Json.member "n_po" s);
        n_gates = Json.to_int (Json.member "n_gates" s);
        depth = Json.to_int (Json.member "depth" s);
        by_cell = List.map (fun (c, n) -> (c, Json.to_int n)) (Json.to_assoc (Json.member "by_cell" s));
      };
    fresh_delay = Json.to_float (Json.member "fresh_delay_s" json);
    aged_delay = Json.to_float (Json.member "aged_delay_s" json);
    degradation = Json.to_float (Json.member "degradation" json);
    max_dvth = Json.to_float (Json.member "max_dvth_v" json);
    standby_leakage = Json.to_float (Json.member "standby_leakage_a" json);
    active_leakage = Json.to_float (Json.member "active_leakage_a" json);
  }

let json_of_ivc (r : Ivc.Co_opt.result) (stats : Ivc.Mlv.search_stats) =
  let choice (c : Ivc.Co_opt.choice) =
    Json.Assoc
      [
        ("vector", F.write F.standby.F.kind (Vector c.Ivc.Co_opt.vector));
        ("leakage_a", Json.Float c.Ivc.Co_opt.leakage);
        ("degradation", Json.Float c.Ivc.Co_opt.degradation);
        ("aged_delay_s", Json.Float c.Ivc.Co_opt.aged_delay);
      ]
  in
  Json.Assoc
    [
      ("best", choice r.Ivc.Co_opt.best);
      ("all", Json.List (List.map choice r.Ivc.Co_opt.all));
      ("fresh_delay_s", Json.Float r.Ivc.Co_opt.fresh_delay);
      ("spread", Json.Float r.Ivc.Co_opt.spread);
      ( "search",
        Json.Assoc
          [
            ("rounds", Json.Int stats.Ivc.Mlv.rounds);
            ("evaluations", Json.Int stats.Ivc.Mlv.evaluations);
            ("converged", Json.Bool stats.Ivc.Mlv.converged);
          ] );
    ]

let json_of_st (r : Sleep.St_insertion.result) =
  Json.Assoc
    [
      ("style", Json.String (style_string r.Sleep.St_insertion.style));
      ("beta", Json.Float r.Sleep.St_insertion.beta);
      ("nbti_aware", Json.Bool r.Sleep.St_insertion.nbti_aware);
      ("fresh_delay_s", Json.Float r.Sleep.St_insertion.fresh_delay);
      ("fresh_delay_with_st_s", Json.Float r.Sleep.St_insertion.fresh_delay_with_st);
      ("aged_delay_with_st_s", Json.Float r.Sleep.St_insertion.aged_delay_with_st);
      ("total_degradation", Json.Float r.Sleep.St_insertion.total_degradation);
      ("internal_degradation", Json.Float r.Sleep.St_insertion.internal_degradation);
      ("st_penalty_aged", Json.Float r.Sleep.St_insertion.st_penalty_aged);
      ("st_dvth_v", Json.Float r.Sleep.St_insertion.st_dvth);
    ]

let json_of_posterior ~dataset (p : Calibrate.Posterior.t) =
  let param (s : Calibrate.Posterior.param_summary) =
    ( s.Calibrate.Posterior.name,
      Json.Assoc
        ([
           ("mean", Json.Float s.Calibrate.Posterior.mean);
           ("sd", Json.Float s.Calibrate.Posterior.sd);
           ( "ci",
             Json.List
               [
                 Json.Float s.Calibrate.Posterior.ci_lo;
                 Json.Float s.Calibrate.Posterior.ci_hi;
               ] );
           ("ess", Json.Float s.Calibrate.Posterior.ess);
         ]
        @
        match s.Calibrate.Posterior.rhat with
        | Some r -> [ ("rhat", Json.Float r) ]
        | None -> []) )
  in
  let predictive (pp : Calibrate.Posterior.predictive_point) =
    Json.Assoc
      [
        ("time_s", Json.Float pp.Calibrate.Posterior.time_s);
        ("temp_k", Json.Float pp.Calibrate.Posterior.temp_k);
        ("vdd_v", Json.Float pp.Calibrate.Posterior.vdd_v);
        ("mean", Json.Float pp.Calibrate.Posterior.mean);
        ( "ci",
          Json.List
            [
              Json.Float pp.Calibrate.Posterior.ci_lo;
              Json.Float pp.Calibrate.Posterior.ci_hi;
            ] );
      ]
  in
  let rd = Calibrate.Model.to_tech_params (Calibrate.Posterior.mean_theta p) in
  Json.Assoc
    ([
       ("kind", Json.String "calibration");
       ("sampler", Json.String p.Calibrate.Posterior.sampler);
       ("n_chains", Json.Int p.Calibrate.Posterior.n_chains);
       ("samples_per_chain", Json.Int p.Calibrate.Posterior.samples_per_chain);
       ("ci_level", Json.Float p.Calibrate.Posterior.ci_level);
       ( "dataset",
         Json.Assoc
           [
             ("points", Json.Int (Calibrate.Dataset.length dataset));
             ("digest", Json.String (Calibrate.Dataset.digest dataset));
           ] );
       ( "params",
         Json.Assoc (Array.to_list (Array.map param p.Calibrate.Posterior.params))
       );
       ( "accept_rates",
         Json.List
           (Array.to_list
              (Array.map (fun a -> Json.Float a) p.Calibrate.Posterior.accept_rates))
       );
       ( "predictive",
         Json.List
           (Array.to_list (Array.map predictive p.Calibrate.Posterior.predictive))
       );
       ( "rd_params",
         Json.Assoc
           [
             ("kv_ref", Json.Float rd.Nbti.Rd_model.kv_ref);
             ("ref_temp_k", Json.Float rd.Nbti.Rd_model.ref_temp_k);
             ("ref_overdrive", Json.Float rd.Nbti.Rd_model.ref_overdrive);
             ("ref_vth0", Json.Float rd.Nbti.Rd_model.ref_vth0);
             ("ea_ev", Json.Float rd.Nbti.Rd_model.ea_ev);
             ("e0_field", Json.Float rd.Nbti.Rd_model.e0_field);
             ("time_exponent", Json.Float rd.Nbti.Rd_model.time_exponent);
             ("permanent_fraction", Json.Float rd.Nbti.Rd_model.permanent_fraction);
           ] );
     ]
    @
    match p.Calibrate.Posterior.weight_ess with
    | Some e -> [ ("weight_ess", Json.Float e) ]
    | None -> [])

(* --- Cache keys --- *)

let calibrate_cache_key { dataset; config } =
  Printf.sprintf "calibrate|%s|%s"
    (Calibrate.Dataset.digest dataset)
    (Calibrate.Engine.fingerprint config)

let job_cache_key job ~circuit_digest =
  let circuit_digest = circuit_digest ^ ":" ^ circuit_name (job_circuit job) in
  let flow_fp flow = Flow.Platform.config_fingerprint (platform_config flow) in
  match job with
  | Analyze { circuit = _; flow; standby } ->
    Printf.sprintf "analyze|%s|%s|%s" circuit_digest (flow_fp flow) (standby_string standby)
  | Ivc_search { circuit = _; flow; seed; pool; tolerance } ->
    Printf.sprintf "ivc|%s|%s|%d|%d|%s" circuit_digest (flow_fp flow) seed pool
      (match tolerance with None -> "default" | Some t -> Printf.sprintf "%.17g" t)
  | Sleep_sizing { circuit = _; flow; style; beta; vth_st; nbti_aware } ->
    Printf.sprintf "st|%s|%s|%s|%.17g|%s|%b" circuit_digest (flow_fp flow) (style_string style) beta
      (match vth_st with None -> "default" | Some v -> Printf.sprintf "%.17g" v)
      nbti_aware
