type action = Delay_ms of int | Fail | Truncate | Shed

exception Injected of string

type rule = {
  site : string;
  action : action;
  budget : int option;
  mutable remaining : int option;
  mutable fired : int;
}

type t = { rules : rule list; lock : Mutex.t }

let none = { rules = []; lock = Mutex.create () }
let is_empty t = t.rules = []

(* The first three sites fire inside the backend daemon; connect /
   probe / handoff fire inside the fleet router, so one grammar chaos-
   tests the whole fleet. *)
let known_sites = [ "admission"; "compute"; "write"; "connect"; "probe"; "handoff" ]

let action_to_string = function
  | Delay_ms ms -> Printf.sprintf "delay:%d" ms
  | Fail -> "fail"
  | Truncate -> "truncate"
  | Shed -> "shed"

let parse_action s =
  match String.index_opt s ':' with
  | Some i -> begin
    let name = String.sub s 0 i in
    let param = String.sub s (i + 1) (String.length s - i - 1) in
    match (name, int_of_string_opt param) with
    | "delay", Some ms when ms >= 0 -> Ok (Delay_ms ms)
    | "delay", _ -> Error (Printf.sprintf "bad delay parameter %S" param)
    | _ -> Error (Printf.sprintf "unknown parameterized action %S" name)
  end
  | None -> begin
    match s with
    | "fail" -> Ok Fail
    | "truncate" -> Ok Truncate
    | "shed" -> Ok Shed
    | _ -> Error (Printf.sprintf "unknown action %S" s)
  end

let parse_rule s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "fault %S: expected site=action" s)
  | Some eq ->
    let site = String.trim (String.sub s 0 eq) in
    let rhs = String.trim (String.sub s (eq + 1) (String.length s - eq - 1)) in
    if not (List.mem site known_sites) then
      Error
        (Printf.sprintf "unknown fault site %S (sites: %s)" site (String.concat ", " known_sites))
    else begin
      let action_s, budget =
        match String.index_opt rhs '@' with
        | None -> (rhs, Ok None)
        | Some at -> begin
          let a = String.sub rhs 0 at in
          let n = String.sub rhs (at + 1) (String.length rhs - at - 1) in
          match int_of_string_opt n with
          | Some k when k >= 1 -> (a, Ok (Some k))
          | _ -> (a, Error (Printf.sprintf "bad fault budget %S" n))
        end
      in
      match budget with
      | Error _ as e -> e
      | Ok budget -> begin
        match parse_action action_s with
        | Error _ as e -> e
        | Ok action -> Ok { site; action; budget; remaining = budget; fired = 0 }
      end
    end

let parse spec =
  let parts =
    String.split_on_char ',' spec |> List.map String.trim |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok { rules = List.rev acc; lock = Mutex.create () }
    | p :: rest -> begin
      match parse_rule p with Ok r -> go (r :: acc) rest | Error _ as e -> e
    end
  in
  go [] parts

let fire t ~site =
  if t.rules = [] then []
  else begin
    Mutex.lock t.lock;
    let fired =
      List.filter_map
        (fun r ->
          if r.site <> site then None
          else begin
            match r.remaining with
            | Some 0 -> None
            | Some n ->
              r.remaining <- Some (n - 1);
              r.fired <- r.fired + 1;
              Some r.action
            | None ->
              r.fired <- r.fired + 1;
              Some r.action
          end)
        t.rules
    in
    Mutex.unlock t.lock;
    fired
  end

let to_json t =
  Mutex.lock t.lock;
  let rules =
    List.map
      (fun r ->
        Json.Assoc
          [
            ("site", Json.String r.site);
            ("action", Json.String (action_to_string r.action));
            ("budget", match r.budget with Some n -> Json.Int n | None -> Json.Null);
            ("remaining", match r.remaining with Some n -> Json.Int n | None -> Json.Null);
            ("fired", Json.Int r.fired);
          ])
      t.rules
  in
  Mutex.unlock t.lock;
  Json.List rules
