(* Whole wire requests drawn from the field table
   ([Server.Request_fields]): every member absent or inside its domain,
   on named and inline circuits, alone or in batches. *)

module F = Server.Request_fields

let ops_with_members = List.map fst Server.Protocol.request_fields

(* A JSON value inside a field's domain, bounds included. *)
let rec gen_value : type a. a F.t -> Server.Json.t QCheck.Gen.t =
 fun f ->
  let open QCheck.Gen in
  let open Server.Json in
  let rec gen_kind : type b. b F.kind -> t QCheck.Gen.t = function
    | F.Float { min; max } ->
      let lo = match min with Some (F.Incl b) -> b | Some (F.Excl b) -> Float.succ b | None -> -1e3 in
      let hi = match max with Some (F.Incl b) -> b | Some (F.Excl b) -> Float.pred b | None -> lo +. 1e3 in
      map (fun x -> Float x) (oneof [ return lo; return hi; float_range lo hi ])
    | F.Int { min; max } ->
      let lo = Option.value ~default:(-1_000_000) min in
      let hi = Option.value ~default:1_000_000 max in
      (* small work sizes too, so most calibrations pass the iteration cap *)
      let small = int_range lo (Stdlib.min hi (lo + 100)) in
      map (fun n -> Int n) (oneof [ return lo; return hi; int_range lo hi; small; small ])
    | F.Bool -> map (fun b -> Bool b) bool
    | F.Enum cases -> map (fun (name, _) -> String name) (oneofl cases)
    | F.Pair (a, b) -> map2 (fun x y -> List [ x; y ]) (gen_kind a) (gen_kind b)
    | F.Optional k -> gen_kind k
    | F.Object o -> gen_members (F.members o)
    | F.Alt (cases, o) ->
      oneof [ map (fun (name, _) -> String name) (oneofl cases); gen_members (F.members o) ]
    | F.Custom _ -> (
      match f.F.name with
      | "standby" ->
        oneof
          [
            oneofl [ String "worst"; String "best" ];
            map (fun s -> String s) (string_size ~gen:(oneofl [ '0'; '1' ]) (int_range 1 8));
          ]
      | "predict" ->
        let pos lo hi = map (fun x -> Float x) (float_range lo hi) in
        map
          (fun pts -> List pts)
          (list_size (int_range 0 3)
             (map3 (fun t k v -> List [ t; k; v ]) (pos 1.0 1e9) (pos 200.0 500.0) (pos 0.5 1.5)))
      | name -> failwith ("no generator for custom field " ^ name))
  in
  gen_kind f.F.kind

(* Every member absent or drawn inside its domain. *)
and gen_members members =
  let open QCheck.Gen in
  map
    (fun kvs -> Server.Json.Assoc (List.filter_map Fun.id kvs))
    (flatten_l
       (List.map
          (fun (F.Any f) -> opt (map (fun v -> (f.F.name, v)) (gen_value f)))
          members))

let gen_body op =
  let open QCheck.Gen in
  let open Server.Json in
  let members = gen_members (List.assoc op Server.Protocol.request_fields) in
  let head =
    if op = "calibrate" then
      return [ ("csv", String "1e3,400,1.0,0.010\n1e5,365,1.1,0.020\n1e7,400,1.0,0.035") ]
    else
      map
        (fun c -> [ ("circuit", c) ])
        (oneofl
           [ String "c17"; String "c432"; Assoc [ ("bench", String "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n") ] ])
  in
  map2 (fun head m -> ("op", String op) :: head @ Server.Json.to_assoc m) head members

(* A whole request whose op, or batch job ops, are drawn from [ops]
   (calibrate is never a batch job), with the optional [timeout_ms]
   member drawn by [timeout_ms]. *)
let gen_request_over ~ops ~timeout_ms =
  let open QCheck.Gen in
  let open Server.Json in
  let jobs = List.filter (( <> ) "calibrate") ops in
  let body =
    oneof
      [
        oneofl ops >>= gen_body;
        map
          (fun js -> [ ("op", String "batch"); ("jobs", List (List.map (fun j -> Assoc j) js)) ])
          (list_size (int_range 1 3) (oneofl jobs >>= gen_body));
      ]
  in
  map3
    (fun id ms body ->
      Assoc
        ((("v", Int 1) :: Option.to_list (Option.map (fun s -> ("id", String s)) id))
        @ Option.to_list (Option.map (fun ms -> ("timeout_ms", Int ms)) ms)
        @ body))
    (opt (oneofl [ "a"; "req-7" ]))
    timeout_ms body

let gen_request =
  gen_request_over ~ops:ops_with_members ~timeout_ms:QCheck.Gen.(opt (int_range 1 100_000))
