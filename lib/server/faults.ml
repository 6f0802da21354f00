(* A rule's action: a delay, or the one failure its site acts out. *)
type action = Delay_ms of int | Failure

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

(* Each site and the name of the one failure it acts out; [delay:MS]
   is valid at every site. admission and compute fire inside the
   backend daemon, write on both roles, and connect / probe / handoff
   inside the fleet router, so one grammar chaos-tests the whole
   fleet. *)
let site_failures =
  [
    ("admission", "shed");
    ("compute", "fail");
    ("write", "truncate");
    ("connect", "fail");
    ("probe", "fail");
    ("handoff", "fail");
  ]

let known_sites = List.map fst site_failures

let action_to_string ~site = function
  | Delay_ms ms -> Printf.sprintf "delay:%d" ms
  | Failure -> List.assoc site site_failures

let parse_action ~site s =
  let failure = List.assoc site site_failures in
  match String.index_opt s ':' with
  | Some i -> begin
    let name = String.sub s 0 i in
    let param = String.sub s (i + 1) (String.length s - i - 1) in
    match (name, int_of_string_opt param) with
    | "delay", Some ms when ms >= 0 -> Ok (Delay_ms ms)
    | "delay", _ -> Error (Printf.sprintf "bad delay parameter %S" param)
    | _ -> Error (Printf.sprintf "unknown parameterized action %S" name)
  end
  | None when s = failure -> Ok Failure
  | None -> Error (Printf.sprintf "fault site %S takes delay:MS or %s, not %S" site failure s)

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
      | Ok budget ->
        Result.map
          (fun action -> { site; action; budget; remaining = budget; fired = 0 })
          (parse_action ~site action_s)
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
  if t.rules = [] then false
  else begin
    Mutex.lock t.lock;
    let delay_ms = ref 0 and failed = ref false in
    List.iter
      (fun r ->
        let armed =
          r.site = site
          &&
          match r.remaining with
          | Some 0 -> false
          | Some n ->
            r.remaining <- Some (n - 1);
            true
          | None -> true
        in
        if armed then begin
          r.fired <- r.fired + 1;
          match r.action with Delay_ms ms -> delay_ms := !delay_ms + ms | Failure -> failed := true
        end)
      t.rules;
    Mutex.unlock t.lock;
    if !delay_ms > 0 then Unix.sleepf (float_of_int !delay_ms /. 1000.0);
    !failed
  end

let to_json t =
  Mutex.lock t.lock;
  let rules =
    List.map
      (fun r ->
        Json.Assoc
          [
            ("site", Json.String r.site);
            ("action", Json.String (action_to_string ~site:r.site r.action));
            ("budget", match r.budget with Some n -> Json.Int n | None -> Json.Null);
            ("remaining", match r.remaining with Some n -> Json.Int n | None -> Json.Null);
            ("fired", Json.Int r.fired);
          ])
      t.rules
  in
  Mutex.unlock t.lock;
  Json.List rules
