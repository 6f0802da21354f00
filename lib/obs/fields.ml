(* Structured attribute values shared by spans and log records. *)

type t = Str of string | Int of int | Float of float | Bool of bool

let to_json = function
  | Str s -> Json.String s
  | Int i -> Json.Int i
  | Float x -> Json.Float x
  | Bool v -> Json.Bool v

let assoc kvs = Json.Assoc (List.map (fun (k, v) -> (k, to_json v)) kvs)

let to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float x -> Printf.sprintf "%g" x
  | Bool v -> string_of_bool v
