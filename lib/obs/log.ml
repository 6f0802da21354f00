type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_string = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Ok (Some Debug)
  | "info" -> Ok (Some Info)
  | "warn" | "warning" -> Ok (Some Warn)
  | "error" -> Ok (Some Error)
  | "quiet" | "off" | "none" -> Ok None
  | other -> Error (Printf.sprintf "unknown log level %S (want debug|info|warn|error|quiet)" other)

(* All three knobs are plain refs guarded by [lock] for writes; reads on
   the filter fast path are single-word loads, which is safe — at worst a
   record emitted concurrently with a knob flip uses the old setting. *)
let current_level : level option ref = ref (Some Warn)
let json_mode = ref false
let channel = ref stderr
let lock = Mutex.create ()

let set_level l =
  Mutex.lock lock;
  current_level := l;
  Mutex.unlock lock

let set_json v =
  Mutex.lock lock;
  json_mode := v;
  Mutex.unlock lock

let set_channel oc =
  Mutex.lock lock;
  channel := oc;
  Mutex.unlock lock

let would_log lvl =
  match !current_level with None -> false | Some min -> severity lvl >= severity min

let iso8601 t =
  let tm = Unix.gmtime t in
  let frac = t -. Float.of_int (int_of_float t) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (int_of_float (frac *. 1000.0))

let render_json b ~ts ~lvl ~cid ~msg fields =
  Buffer.add_string b
    (Json.to_string
       (Fields.assoc
          ([ ("ts", Fields.Str (iso8601 ts)); ("level", Fields.Str (level_string lvl)) ]
          @ (match cid with Some id -> [ ("cid", Fields.Str id) ] | None -> [])
          @ (("msg", Fields.Str msg) :: fields))))

let render_text b ~ts ~lvl ~cid ~msg fields =
  Buffer.add_string b (iso8601 ts);
  Buffer.add_char b ' ';
  Buffer.add_string b (String.uppercase_ascii (level_string lvl));
  (match cid with
  | Some id ->
    Buffer.add_string b " [";
    Buffer.add_string b id;
    Buffer.add_char b ']'
  | None -> ());
  Buffer.add_char b ' ';
  Buffer.add_string b msg;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (Fields.to_string v))
    fields

let log lvl ?(fields = []) msg =
  if would_log lvl then begin
    let ts = Unix.gettimeofday () in
    let cid = Ctx.current () in
    let b = Buffer.create 128 in
    if !json_mode then render_json b ~ts ~lvl ~cid ~msg fields
    else render_text b ~ts ~lvl ~cid ~msg fields;
    Buffer.add_char b '\n';
    Mutex.lock lock;
    let oc = !channel in
    (try
       Buffer.output_buffer oc b;
       flush oc
     with Sys_error _ -> ());
    Mutex.unlock lock
  end

let debug ?fields msg = log Debug ?fields msg
let info ?fields msg = log Info ?fields msg
let warn ?fields msg = log Warn ?fields msg
let error ?fields msg = log Error ?fields msg
