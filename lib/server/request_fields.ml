(* The request-field table: every knob of a job, of its "config" and of a
   calibrate request, declared once with its wire name, default, domain
   and doc string. Protocol builds its records from the entries with
   [obj] and [mem]; the CLI flags and README's field table render them.
   Bounds a library enforces are read from it; cross-field rules (the
   calibration iteration cap) and checks that need the circuit (standby
   vector length) stay where they are. *)

type bound = Incl of float | Excl of float

type _ kind =
  | Float : { min : bound option; max : bound option } -> float kind
  | Int : { min : int option; max : int option } -> int kind  (** inclusive bounds *)
  | Bool : bool kind
  | Enum : (string * 'a) list -> 'a kind
  | Pair : 'a kind * 'b kind -> ('a * 'b) kind  (** a two-element array *)
  | Optional : 'a kind -> 'a option kind  (** absent is [None], which is never written *)
  | Object : ('a, 'a) obj -> 'a kind
  | Alt : (string * 'a) list * ('a, 'a) obj -> 'a kind  (** one of the strings, or an object *)
  | Custom : { domain : string; read : Json.t -> 'a option; write : 'a -> Json.t } -> 'a kind
      (** [read] is [None] outside the domain and raises [Json.Type_error] on a wrong type *)

(* An absent member decodes to [default]; a member equal to its default
   is not written. *)
and 'a t = { name : string; default : 'a; kind : 'a kind; doc : string }
and any = Any : 'a t -> any

(* A record codec under construction: ['k] is what is still to be applied
   to the record's constructor. *)
and ('r, 'k) obj = {
  rev_members : any list;
  decode_members : Json.t -> 'k;
  encode_members : 'r -> (string * Json.t) list -> (string * Json.t) list;
}

(* A wrong JSON type (bad_request on the wire), or else a value outside
   its domain or an unknown member (invalid_request). [field] is the
   dotted path ("config.years"), filled in as the error leaves each
   member, so a value that decodes builds no names. *)
type error = { wrong_type : bool; field : string; message : string; bounds : (string * Json.t) list }

exception Error of error

let wrong_type what = raise (Error { wrong_type = true; field = ""; message = "must be " ^ what; bounds = [] })
let out_of_domain ?(bounds = []) field message = raise (Error { wrong_type = false; field; message; bounds })

let under name e =
  let sub = e.field in
  { e with field = (if sub = "" then name else if sub.[0] = '[' then name ^ sub else name ^ "." ^ sub) }

(* --- Domains, as README, the CLI and error messages spell them --- *)

let range show min max =
  let lo = Option.fold ~none:"(-inf" ~some:(fun (b, c) -> Printf.sprintf "%c%s" c (show b)) min in
  lo ^ ", " ^ Option.fold ~none:"inf)" ~some:(fun (b, c) -> Printf.sprintf "%s%c" (show b) c) max

let float_bound closed open_ = function Incl b -> (b, closed) | Excl b -> (b, open_)
let quoted cases = String.concat ", " (List.map (fun (n, _) -> Printf.sprintf "%S" n) cases)

let rec domain_string : type a. a kind -> string = function
  | Float { min; max } ->
    range (Printf.sprintf "%g") (Option.map (float_bound '[' '(') min)
      (Option.map (float_bound ']' ')') max)
  | Int { min = None; max = None } -> "any integer"
  | Int { min; max } ->
    range string_of_int (Option.map (fun b -> (b, '[')) min) (Option.map (fun b -> (b, ']')) max)
  | Bool -> "true or false"
  | Enum cases -> "one of " ^ quoted cases
  | Pair (a, b) -> Printf.sprintf "[a, b], a in %s, b in %s" (domain_string a) (domain_string b)
  | Optional k -> domain_string k
  | Object _ -> "object"
  | Alt (cases, _) -> quoted cases ^ " or an object"
  | Custom { domain; _ } -> domain

let bounds json min max =
  List.filter_map (fun (k, b) -> Option.map (fun b -> (k, json b)) b) [ ("min", min); ("max", max) ]

let above x = function None -> true | Some (Incl b) -> x >= b | Some (Excl b) -> x > b
let below x = function None -> true | Some (Incl b) -> x <= b | Some (Excl b) -> x < b
let bound_json = function Incl b | Excl b -> Json.Float b
let outside kind bounds = out_of_domain ~bounds "" ("must be in " ^ domain_string kind)

(* String.equal, not List.mem's polymorphic compare: these run on every
   member of every request. *)
let rec listed k = function [] -> false | x :: rest -> String.equal x k || listed k rest
let rec declared k = function [] -> false | Any f :: rest -> String.equal f.name k || declared k rest

let rec undeclared extra members = function
  | [] -> None
  | (k, _) :: rest ->
    if listed k extra || declared k members then undeclared extra members rest else Some k

(* --- Codec --- *)

let rec read_kind : type a. a kind -> Json.t -> a =
 fun kind json ->
  match kind with
  | Float { min; max } ->
    let x = try Json.to_float json with Json.Type_error _ -> wrong_type "a number" in
    if above x min && below x max then x else outside kind (bounds bound_json min max)
  | Int { min; max } ->
    let n = try Json.to_int json with Json.Type_error _ -> wrong_type "an integer" in
    if (match min with Some b -> n >= b | None -> true) && match max with Some b -> n <= b | None -> true
    then n
    else outside kind (bounds (fun b -> Json.Int b) min max)
  | Bool -> ( try Json.to_bool json with Json.Type_error _ -> wrong_type "true or false")
  | Enum cases -> ( match json with Json.String s -> enum_case cases s | _ -> wrong_type "a string")
  | Pair (ka, kb) -> begin
    match json with
    | Json.List [ a; b ] ->
      let a = try read_kind ka a with Error e -> raise (Error (under "[0]" e)) in
      (a, try read_kind kb b with Error e -> raise (Error (under "[1]" e)))
    | _ -> wrong_type "a two-element array"
  end
  | Optional k -> Some (read_kind k json)
  | Object o -> decode ~extra:[] o json
  | Alt (cases, o) -> begin
    match json with
    | Json.String s -> enum_case cases s
    | Json.Assoc _ -> decode ~extra:[] o json
    | _ -> wrong_type (domain_string kind)
  end
  | Custom { domain; read; _ } -> (
    match read json with
    | Some v -> v
    | None -> out_of_domain "" ("must be " ^ domain)
    | exception Json.Type_error _ -> wrong_type domain)

and enum_case : type a. (string * a) list -> string -> a =
 fun cases s ->
  match List.assoc_opt s cases with
  | Some v -> v
  | None -> out_of_domain "" ("must be one of " ^ quoted cases)

(* Decodes an object whose members are [o]'s plus [extra] (envelope
   fields the caller reads itself). *)
and decode : type r k. extra:string list -> (r, k) obj -> Json.t -> k =
 fun ~extra o json ->
  match json with
  | Json.Assoc kvs -> begin
    match undeclared extra o.rev_members kvs with
    | None -> o.decode_members json
    | Some k ->
      let known = extra @ List.rev_map (fun (Any f) -> f.name) o.rev_members in
      out_of_domain k (Printf.sprintf "is not a member here (known: %s)" (String.concat ", " known))
  end
  | _ -> wrong_type "an object"

let read f json = try read_kind f.kind json with Error e -> raise (Error (under f.name e))

(* The member [f] of an object, or its default. *)
let member f json = match Json.member_opt f.name json with None -> f.default | Some v -> read f v

let rec write : type a. a kind -> a -> Json.t =
 fun kind v ->
  let name cases = Option.map fst (List.find_opt (fun (_, c) -> c = v) cases) in
  match kind with
  | Float _ -> Json.Float v
  | Int _ -> Json.Int v
  | Bool -> Json.Bool v
  | Enum cases -> Json.String (Option.get (name cases))
  | Pair (a, b) -> Json.List [ write a (fst v); write b (snd v) ]
  | Optional k -> Option.fold ~none:Json.Null ~some:(write k) v
  | Object o -> Json.Assoc (encode o v)
  | Alt (cases, o) -> (
    match name cases with Some s -> Json.String s | None -> Json.Assoc (encode o v))
  | Custom { write; _ } -> write v

(* Every member that differs from its default, in declaration order. *)
and encode : type r k. (r, k) obj -> r -> (string * Json.t) list = fun o r -> o.encode_members r []

(* [obj make |> mem field get |> ...]: [make] takes the members in the
   order they are added, [get] reads one back for encoding. *)
let obj make =
  { rev_members = []; decode_members = (fun _ -> make); encode_members = (fun _ acc -> acc) }

let mem f get o =
  {
    rev_members = Any f :: o.rev_members;
    decode_members =
      (fun json ->
        let make = o.decode_members json in
        make (member f json));
    encode_members =
      (fun r acc ->
        let v = get r in
        o.encode_members r (if v = f.default then acc else (f.name, write f.kind v) :: acc));
  }

let members o = List.rev o.rev_members

(* --- The entries --- *)

let float ?min ?max () = Float { min; max }
let int ?min ?max () = Int { min; max }
let field name default kind doc = { name; default; kind; doc }

(* Cold storage to accelerated burn-in (125-150 C), beyond the paper's 330-400 K. *)
let kelvin = float ~min:(Incl 200.0) ~max:(Incl 500.0) ()
let ratio = float ~min:(Excl 0.0) ~max:(Excl 1.0) ()
let fraction = float ~min:(Incl 0.0) ~max:(Incl 1.0) ()

let ras =
  field "ras" (1.0, 9.0)
    (Pair (float ~min:(Incl 1e-6) ~max:(Incl 1e6) (), float ~min:(Incl 0.0) ~max:(Incl 1e6) ()))
    "Active:standby time ratio [active, standby] (the CLI writes it A:S)."

let t_active = field "t_active" 400.0 kelvin "Active-mode die temperature [K]."
let t_standby = field "t_standby" 330.0 kelvin "Standby-mode die temperature [K]."
let years = field "years" 10.0 (float ~min:(Excl 0.0) ~max:(Incl 100.0) ()) "Operation time in years."

let input_sp = field "input_sp" 0.5 fraction "Probability of a 1 on every primary input."

(* 256 times the default sample: c7552 takes seconds, not minutes. *)
let max_sp_vectors = 1 lsl 20

let n_vectors = field "n_vectors" 4096 (int ~min:1 ~max:max_sp_vectors ()) "Monte-Carlo input vectors."

let sp_seed = field "seed" 7 (int ()) "Seed of the Monte-Carlo input vectors."

(* Alt writes Sp_analytic as its string; the object form sees only Sp_monte_carlo. *)
let sp_method =
  let open Flow.Platform in
  let mc get = function
    | Sp_monte_carlo { n_vectors; seed } -> get (n_vectors, seed)
    | Sp_analytic -> assert false
  in
  let monte_carlo =
    obj (fun n_vectors seed -> Sp_monte_carlo { n_vectors; seed })
    |> mem n_vectors (mc fst)
    |> mem sp_seed (mc snd)
  in
  field "sp_method" (decode ~extra:[] monte_carlo (Json.Assoc []))
    (Alt ([ ("analytic", Sp_analytic) ], monte_carlo))
    "Signal-probability estimator: exact propagation (\"analytic\") or Monte-Carlo sampling."

let leakage_temp = field "leakage_temp" 400.0 kelvin "Temperature of the leakage tables [K]."

let pbti_scale =
  field "pbti_scale" None (Optional fraction)
    "Also age the NMOS devices (PBTI) with this multiple of the NBTI coefficient; unset: PMOS only."

type standby_spec = Worst | Best | Vector of bool array

let standby =
  let read json =
    match Json.to_string_exn json with
    | "worst" -> Some Worst
    | "best" -> Some Best
    | bits when bits <> "" && String.for_all (fun c -> c = '0' || c = '1') bits ->
      Some (Vector (Array.init (String.length bits) (fun i -> bits.[i] = '1')))
    | _ -> None
  in
  let write = function
    | Worst -> Json.String "worst"
    | Best -> Json.String "best"
    | Vector v -> Json.String (String.init (Array.length v) (fun i -> if v.(i) then '1' else '0'))
  in
  let domain = "\"worst\", \"best\" or a 0/1 string, one bit per primary input" in
  field "standby" Worst (Custom { domain; read; write })
    "Standby state: every internal node stressed (worst), none (best), or this input vector."

(* 64 packed 64-vector sweeps per search round. *)
let max_ivc_pool = 4096
let ivc_seed = field "seed" 42 (int ()) "Seed of the minimum-leakage vector search."
let pool = field "pool" 64 (int ~min:2 ~max:max_ivc_pool ()) "Vectors per search round."

let tolerance =
  field "tolerance" None (Optional (float ~min:(Incl 0.0) ()))
    "Leakage band that defines the MLV set, as a fraction of its minimum; unset: the search's 0.04."

let style =
  let open Sleep.St_insertion in
  field "style" Footer_and_header
    (Enum [ ("footer", Footer); ("header", Header); ("both", Footer_and_header) ])
    "Sleep transistor style."

let beta = field "beta" 0.03 ratio "Allowed sleep-transistor delay penalty."

(* At most V_dd / 2: the sleep transistor keeps more headroom than its
   threshold, so no in-domain mission ages it past cut-off. *)
let vth_st =
  field "vth_st" None
    (Optional (float ~min:(Excl 0.0) ~max:(Incl (Device.Tech.ptm_90nm.Device.Tech.vdd /. 2.0)) ()))
    "Initial sleep-transistor threshold magnitude [V]; unset: the technology's."

let nbti_aware = field "nbti_aware" true Bool "Size the sleep transistor for its end-of-life NBTI shift."

let sampler : [ `Mh | `Importance ] t =
  field "sampler" `Mh
    (Enum [ ("mh", `Mh); ("importance", `Importance) ])
    "Posterior sampler: adaptive Metropolis-Hastings or importance sampling."

module E = Calibrate.Engine

let engine = E.default_config
let particles =
  field "particles" 2000 (int ~min:1 ~max:E.max_particles ()) "Importance-sampling particle count."

let chains =
  field "chains" engine.E.n_chains (int ~min:1 ~max:E.max_chains ()) "Independent Metropolis-Hastings chains."

(* Each at most the iteration cap; the cap on their product is the engine's. *)
let warmup =
  field "warmup" engine.E.warmup (int ~min:0 ~max:E.max_total_iterations ())
    "Adaptation iterations per chain (discarded)."

let samples =
  field "samples" engine.E.samples (int ~min:1 ~max:E.max_total_iterations ())
    "Kept posterior draws per chain."

let thin = field "thin" engine.E.thin (int ~min:1 ~max:E.max_thin ()) "Keep every thin-th post-warmup draw."
let calibrate_seed = field "seed" engine.E.seed (int ()) "Sampler seed."
let ci_level = field "ci_level" engine.E.ci_level ratio "Credible-interval mass."

(* --- Envelope members, and those of the fleet-internal ops --- *)

let id =
  let read json = Some (Json.to_string_exn json) in
  let text = Custom { domain = "a string"; read; write = (fun s -> Json.String s) } in
  field "id" None (Optional text) "Correlation id, echoed in the response."

let timeout_ms = field "timeout_ms" None (Optional (int ~min:1 ())) "Compute budget in milliseconds."

let max_entries = field "max_entries" 64 (int ~min:1 ()) "Result-cache entries a cache_export snapshot holds."
let clear = field "clear" false Bool "Empty the span ring after a trace_export snapshot."

(* Which points the engine can predict at is the engine's own check. *)
let predict =
  let point = function
    | Json.List [ t; k; v ] -> (Json.to_float t, Json.to_float k, Json.to_float v)
    | _ -> raise (Json.Type_error "not a triple")
  in
  let read json =
    let predict = Array.of_list (List.map point (Json.to_list json)) in
    if E.validate { engine with E.predict } = Ok () then Some predict else None
  in
  let triple (t, k, v) = Json.List [ Json.Float t; Json.Float k; Json.Float v ] in
  let write pts = Json.List (Array.to_list (Array.map triple pts)) in
  let domain =
    Printf.sprintf "up to %d [time_s, temp_k, vdd_v] triples of positive numbers" E.max_predict_points
  in
  field "predict" engine.E.predict (Custom { domain; read; write })
    "Points for posterior-predictive degradation intervals."
