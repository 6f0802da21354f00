(* The request codec the service used before the request-field table:
   hand-written decoders and encoders, one per request shape. [Server.Protocol]
   must decode every in-domain request to the same envelope, and its encoder's
   output must decode here to the same envelope. It is unchanged except that
   its types are [Server.Protocol]'s, so values compare directly. *)

open Server
open Server.Protocol

let max_ivc_pool = Request_fields.max_ivc_pool

let default_flow_spec =
  {
    ras = (1.0, 9.0);
    t_active = 400.0;
    t_standby = 330.0;
    years = 10.0;
    input_sp = 0.5;
    sp_method = Flow.Platform.Sp_monte_carlo { n_vectors = 4096; seed = 7 };
    leakage_temp = 400.0;
    pbti_scale = None;
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

(* A well-typed field whose value the op cannot take. *)
let invalid_field field message details =
  raise
    (Bad_structured
       {
         code = Invalid_request;
         message = Printf.sprintf "%s %s" field message;
         details = ("field", Json.String field) :: details;
       })

let circuit_of_json = function
  | Json.String name -> Named name
  | Json.Assoc _ as o -> begin
    match Json.member_opt "bench" o with
    | Some (Json.String text) -> Bench text
    | _ -> bad "circuit object must have a \"bench\" text field"
  end
  | _ -> bad "circuit must be a name or {\"bench\": ...}"

let standby_of_json = function
  | Json.String "worst" -> Worst
  | Json.String "best" -> Best
  | Json.String bits ->
    if bits = "" || String.exists (fun c -> c <> '0' && c <> '1') bits then
      bad "standby must be \"worst\", \"best\" or a 0/1 vector string"
    else Vector (Array.init (String.length bits) (fun i -> bits.[i] = '1'))
  | _ -> bad "standby must be a string"

let sp_method_of_json = function
  | Json.String "analytic" -> Flow.Platform.Sp_analytic
  | Json.Assoc _ as o ->
    let n_vectors =
      match Json.member_opt "n_vectors" o with Some v -> Json.to_int v | None -> 4096
    in
    let seed = match Json.member_opt "seed" o with Some v -> Json.to_int v | None -> 7 in
    if n_vectors < 1 then bad "sp_method.n_vectors must be >= 1";
    Flow.Platform.Sp_monte_carlo { n_vectors; seed }
  | _ -> bad "sp_method must be \"analytic\" or {\"n_vectors\":..,\"seed\":..}"

let flow_of_json o =
  let d = default_flow_spec in
  let fopt key dflt = match Json.member_opt key o with Some v -> Json.to_float v | None -> dflt in
  let ras =
    match Json.member_opt "ras" o with
    | None -> d.ras
    | Some (Json.List [ a; s ]) ->
      let a = Json.to_float a and s = Json.to_float s in
      if a <= 0.0 || s < 0.0 then bad "ras must be [active>0, standby>=0]";
      (a, s)
    | Some _ -> bad "ras must be a two-element array [active, standby]"
  in
  let sp_method =
    match Json.member_opt "sp_method" o with Some v -> sp_method_of_json v | None -> d.sp_method
  in
  let pbti_scale =
    match Json.member_opt "pbti_scale" o with Some v -> Some (Json.to_float v) | None -> None
  in
  let years = fopt "years" d.years in
  if years <= 0.0 then bad "years must be > 0";
  {
    ras;
    t_active = fopt "t_active" d.t_active;
    t_standby = fopt "t_standby" d.t_standby;
    years;
    input_sp = fopt "input_sp" d.input_sp;
    sp_method;
    leakage_temp = fopt "leakage_temp" d.leakage_temp;
    pbti_scale;
  }

let flow_of_envelope o =
  match Json.member_opt "config" o with Some c -> flow_of_json c | None -> default_flow_spec

let style_of_json = function
  | Json.String "footer" -> Sleep.St_insertion.Footer
  | Json.String "header" -> Sleep.St_insertion.Header
  | Json.String "both" -> Sleep.St_insertion.Footer_and_header
  | _ -> bad "style must be \"footer\", \"header\" or \"both\""

let job_of_json o =
  let circuit () =
    match Json.member_opt "circuit" o with
    | Some c -> circuit_of_json c
    | None -> bad "missing circuit"
  in
  let op =
    match Json.member_opt "op" o with
    | Some (Json.String op) -> op
    | _ -> bad "missing op"
  in
  match op with
  | "analyze" ->
    let standby =
      match Json.member_opt "standby" o with Some s -> standby_of_json s | None -> Worst
    in
    Analyze { circuit = circuit (); flow = flow_of_envelope o; standby }
  | "ivc_search" ->
    let seed = match Json.member_opt "seed" o with Some v -> Json.to_int v | None -> 42 in
    let pool = match Json.member_opt "pool" o with Some v -> Json.to_int v | None -> 64 in
    if pool < 2 || pool > max_ivc_pool then
      invalid_field "pool"
        (Printf.sprintf "must be between 2 and %d" max_ivc_pool)
        [ ("min", Json.Int 2); ("max", Json.Int max_ivc_pool) ];
    let tolerance =
      match Json.member_opt "tolerance" o with Some v -> Some (Json.to_float v) | None -> None
    in
    (match tolerance with
    | Some t when not (Float.is_finite t && t >= 0.0) ->
      invalid_field "tolerance" "must be finite and >= 0" [ ("min", Json.Int 0) ]
    | _ -> ());
    Ivc_search { circuit = circuit (); flow = flow_of_envelope o; seed; pool; tolerance }
  | "sleep_sizing" ->
    let style =
      match Json.member_opt "style" o with
      | Some s -> style_of_json s
      | None -> Sleep.St_insertion.Footer_and_header
    in
    let beta = match Json.member_opt "beta" o with Some v -> Json.to_float v | None -> 0.03 in
    if beta <= 0.0 || beta >= 1.0 then bad "beta must be in (0, 1)";
    let vth_st =
      match Json.member_opt "vth_st" o with Some v -> Some (Json.to_float v) | None -> None
    in
    (* V_dd of the one technology the wire can select; St_sizing.make_spec
       refuses anything outside (0, V_dd). *)
    let vdd = Device.Tech.ptm_90nm.Device.Tech.vdd in
    (match vth_st with
    | Some v when not (Float.is_finite v && v > 0.0 && v < vdd) ->
      invalid_field "vth_st"
        (Printf.sprintf "must be finite and in (0, %g) V" vdd)
        [ ("min", Json.Int 0); ("max", Json.Float vdd) ]
    | _ -> ());
    let nbti_aware =
      match Json.member_opt "nbti_aware" o with Some v -> Json.to_bool v | None -> true
    in
    Sleep_sizing { circuit = circuit (); flow = flow_of_envelope o; style; beta; vth_st; nbti_aware }
  | op -> unknown_op op

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
      match Json.member_opt key o with
      | Some v -> Json.to_float v
      | None -> bad "measurement missing %S" key
    in
    {
      Calibrate.Dataset.time_s = f "time_s";
      temp_k = f "temp_k";
      vdd_v = f "vdd_v";
      dvth_v = f "dvth_v";
    }
  | _ -> bad "measurements must be objects with time_s/temp_k/vdd_v/dvth_v"

let calibrate_of_json o =
  let dataset =
    match (Json.member_opt "measurements" o, Json.member_opt "csv" o) with
    | Some (Json.List items), None -> begin
      match Calibrate.Dataset.v (Array.of_list (List.map point_of_json items)) with
      | Ok d -> d
      | Error e -> invalid_dataset e
    end
    | Some _, None -> bad "measurements must be an array"
    | None, Some (Json.String csv) -> begin
      match Calibrate.Dataset.of_csv csv with
      | Ok d -> d
      | Error e -> invalid_dataset e
    end
    | None, Some _ -> bad "csv must be a string"
    | Some _, Some _ -> bad "provide either \"measurements\" or \"csv\", not both"
    | None, None -> bad "calibrate requires \"measurements\" or \"csv\""
  in
  let d = Calibrate.Engine.default_config in
  let iopt key dflt =
    match Json.member_opt key o with Some v -> Json.to_int v | None -> dflt
  in
  let fopt key dflt =
    match Json.member_opt key o with Some v -> Json.to_float v | None -> dflt
  in
  let sampler =
    match Json.member_opt "sampler" o with
    | None | Some (Json.String "mh") -> Calibrate.Engine.Mh
    | Some (Json.String "importance") ->
      Calibrate.Engine.Importance { particles = iopt "particles" 2000 }
    | Some _ -> bad "sampler must be \"mh\" or \"importance\""
  in
  let predict =
    match Json.member_opt "predict" o with
    | None -> d.Calibrate.Engine.predict
    | Some (Json.List pts) ->
      Array.of_list
        (List.map
           (function
             | Json.List [ t; temp; v ] ->
               (Json.to_float t, Json.to_float temp, Json.to_float v)
             | _ -> bad "predict entries must be [time_s, temp_k, vdd_v] triples")
           pts)
    | Some _ -> bad "predict must be an array of [time_s, temp_k, vdd_v] triples"
  in
  let config =
    {
      d with
      Calibrate.Engine.sampler;
      n_chains = iopt "chains" d.Calibrate.Engine.n_chains;
      warmup = iopt "warmup" d.Calibrate.Engine.warmup;
      samples = iopt "samples" d.Calibrate.Engine.samples;
      thin = iopt "thin" d.Calibrate.Engine.thin;
      seed = iopt "seed" d.Calibrate.Engine.seed;
      ci_level = fopt "ci_level" d.Calibrate.Engine.ci_level;
      predict;
    }
  in
  (match Calibrate.Engine.validate config with
  | Ok () -> ()
  | Error m -> bad "%s" m);
  { dataset; config }

let envelope_of_json json =
  let fail code message = Error { code; message; details = [] } in
  try
    match json with
    | Json.Assoc _ -> begin
      let id =
        match Json.member_opt "id" json with
        | Some (Json.String s) -> Some s
        | Some _ -> bad "id must be a string"
        | None -> None
      in
      let timeout_ms =
        match Json.member_opt "timeout_ms" json with
        | Some v -> begin
          match Json.to_int v with
          | ms when ms > 0 -> Some ms
          | _ -> bad "timeout_ms must be a positive integer"
          | exception Json.Type_error _ -> bad "timeout_ms must be a positive integer"
        end
        | None -> None
      in
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
        | Some (Json.String "health") -> Ok { id; timeout_ms; trace; request = Health }
        | Some (Json.String "stats") -> Ok { id; timeout_ms; trace; request = Stats }
        | Some (Json.String "metrics") -> Ok { id; timeout_ms; trace; request = Metrics }
        | Some (Json.String "cluster_metrics") ->
          Ok { id; timeout_ms; trace; request = Cluster_metrics }
        | Some (Json.String "trace_export") ->
          let clear =
            match Json.member_opt "clear" json with
            | Some v -> ( try Json.to_bool v with Json.Type_error _ -> bad "clear must be a boolean")
            | None -> false
          in
          Ok { id; timeout_ms; trace; request = Trace_export { clear } }
        | Some (Json.String "cache_export") ->
          let max_entries =
            match Json.member_opt "max_entries" json with
            | Some v -> Json.to_int v
            | None -> 64
          in
          if max_entries < 1 then bad "max_entries must be >= 1";
          Ok { id; timeout_ms; trace; request = Cache_export { max_entries } }
        | Some (Json.String "cache_import") ->
          let entries =
            match Json.member_opt "entries" json with
            | Some (Json.List items) ->
              List.map
                (fun item ->
                  match (Json.member_opt "key" item, Json.member_opt "payload" item) with
                  | Some (Json.String k), Some payload -> (k, payload)
                  | _ -> bad "cache_import entries must be {\"key\":...,\"payload\":...} objects")
                items
            | _ -> bad "cache_import requires an \"entries\" array"
          in
          Ok { id; timeout_ms; trace; request = Cache_import { entries } }
        | Some (Json.String "calibrate") ->
          Ok { id; timeout_ms; trace; request = Calibrate (calibrate_of_json json) }
        | Some (Json.String "batch") ->
          let jobs =
            match Json.member_opt "jobs" json with
            | Some (Json.List jobs) -> List.map job_of_json jobs
            | _ -> bad "batch requires a \"jobs\" array"
          in
          if jobs = [] then bad "batch with no jobs";
          Ok { id; timeout_ms; trace; request = Batch jobs }
        | Some (Json.String _) -> Ok { id; timeout_ms; trace; request = Single (job_of_json json) }
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
  | Json.Type_error m -> fail Bad_request m

(* --- Encoding (client side) --- *)

let json_of_circuit = function
  | Named n -> Json.String n
  | Bench text -> Json.Assoc [ ("bench", Json.String text) ]

let standby_string = function
  | Worst -> "worst"
  | Best -> "best"
  | Vector v -> String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

let json_of_flow spec =
  let sp_method =
    match spec.sp_method with
    | Flow.Platform.Sp_analytic -> Json.String "analytic"
    | Flow.Platform.Sp_monte_carlo { n_vectors; seed } ->
      Json.Assoc [ ("n_vectors", Json.Int n_vectors); ("seed", Json.Int seed) ]
  in
  Json.Assoc
    ([
       ("ras", Json.List [ Json.Float (fst spec.ras); Json.Float (snd spec.ras) ]);
       ("t_active", Json.Float spec.t_active);
       ("t_standby", Json.Float spec.t_standby);
       ("years", Json.Float spec.years);
       ("input_sp", Json.Float spec.input_sp);
       ("sp_method", sp_method);
       ("leakage_temp", Json.Float spec.leakage_temp);
     ]
    @ match spec.pbti_scale with None -> [] | Some s -> [ ("pbti_scale", Json.Float s) ])

let style_string = function
  | Sleep.St_insertion.Footer -> "footer"
  | Sleep.St_insertion.Header -> "header"
  | Sleep.St_insertion.Footer_and_header -> "both"

let job_fields = function
  | Analyze { circuit; flow; standby } ->
    [
      ("op", Json.String "analyze");
      ("circuit", json_of_circuit circuit);
      ("standby", Json.String (standby_string standby));
      ("config", json_of_flow flow);
    ]
  | Ivc_search { circuit; flow; seed; pool; tolerance } ->
    [
      ("op", Json.String "ivc_search");
      ("circuit", json_of_circuit circuit);
      ("config", json_of_flow flow);
      ("seed", Json.Int seed);
      ("pool", Json.Int pool);
    ]
    @ (match tolerance with None -> [] | Some t -> [ ("tolerance", Json.Float t) ])
  | Sleep_sizing { circuit; flow; style; beta; vth_st; nbti_aware } ->
    [
      ("op", Json.String "sleep_sizing");
      ("circuit", json_of_circuit circuit);
      ("config", json_of_flow flow);
      ("style", Json.String (style_string style));
      ("beta", Json.Float beta);
      ("nbti_aware", Json.Bool nbti_aware);
    ]
    @ (match vth_st with None -> [] | Some v -> [ ("vth_st", Json.Float v) ])

let calibrate_fields { dataset; config } =
  let sampler_fields =
    match config.Calibrate.Engine.sampler with
    | Calibrate.Engine.Mh -> [ ("sampler", Json.String "mh") ]
    | Calibrate.Engine.Importance { particles } ->
      [ ("sampler", Json.String "importance"); ("particles", Json.Int particles) ]
  in
  let predict_field =
    match config.Calibrate.Engine.predict with
    | [||] -> []
    | pts ->
      [
        ( "predict",
          Json.List
            (Array.to_list
               (Array.map
                  (fun (t, temp, v) ->
                    Json.List [ Json.Float t; Json.Float temp; Json.Float v ])
                  pts)) );
      ]
  in
  [
    ("op", Json.String "calibrate");
    ("csv", Json.String (Calibrate.Dataset.to_csv dataset));
  ]
  @ sampler_fields
  @ [
      ("chains", Json.Int config.Calibrate.Engine.n_chains);
      ("warmup", Json.Int config.Calibrate.Engine.warmup);
      ("samples", Json.Int config.Calibrate.Engine.samples);
      ("thin", Json.Int config.Calibrate.Engine.thin);
      ("seed", Json.Int config.Calibrate.Engine.seed);
      ("ci_level", Json.Float config.Calibrate.Engine.ci_level);
    ]
  @ predict_field

let trace_field trace =
  match trace with
  | None -> []
  | Some { Obs.Ctx.trace_id; parent_span } ->
    [
      ( "trace",
        Json.Assoc
          (("trace_id", Json.String trace_id)
          ::
          (match parent_span with
          | None -> []
          | Some p -> [ ("parent_span", Json.String p) ])) );
    ]

let json_of_envelope { id; timeout_ms; trace; request } =
  let id_field = match id with None -> [] | Some id -> [ ("id", Json.String id) ] in
  let timeout_field =
    match timeout_ms with None -> [] | Some ms -> [ ("timeout_ms", Json.Int ms) ]
  in
  let v_field = [ ("v", Json.Int version) ] in
  let base = v_field @ id_field @ timeout_field @ trace_field trace in
  match request with
  | Health -> Json.Assoc (base @ [ ("op", Json.String "health") ])
  | Stats -> Json.Assoc (base @ [ ("op", Json.String "stats") ])
  | Metrics -> Json.Assoc (base @ [ ("op", Json.String "metrics") ])
  | Cluster_metrics -> Json.Assoc (base @ [ ("op", Json.String "cluster_metrics") ])
  | Trace_export { clear } ->
    Json.Assoc (base @ [ ("op", Json.String "trace_export"); ("clear", Json.Bool clear) ])
  | Cache_export { max_entries } ->
    Json.Assoc
      (base @ [ ("op", Json.String "cache_export"); ("max_entries", Json.Int max_entries) ])
  | Cache_import { entries } ->
    Json.Assoc
      (base
      @ [
          ("op", Json.String "cache_import");
          ( "entries",
            Json.List
              (List.map
                 (fun (k, payload) ->
                   Json.Assoc [ ("key", Json.String k); ("payload", payload) ])
                 entries) );
        ])
  | Single job -> Json.Assoc (base @ job_fields job)
  | Calibrate spec -> Json.Assoc (base @ calibrate_fields spec)
  | Batch jobs ->
    Json.Assoc
      (base
      @ [ ("op", Json.String "batch"); ("jobs", Json.List (List.map (fun j -> Json.Assoc (job_fields j)) jobs)) ])
