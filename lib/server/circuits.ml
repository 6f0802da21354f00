type resolved = { net : Circuit.Netlist.t; digest : string }

(* Inline entries keep the text they were parsed from: a hit is only
   served when the request's text is equal, so even an MD5 collision
   cannot hand out another circuit. Named entries keep no text. *)
type entry = { resolved : resolved; text : string option }

type t = entry Cache.t

let default_capacity = 64
let default_max_bytes = 32 * 1024 * 1024

(* Measured at roughly 90-120 bytes per node (node block, fanin array,
   instance name); 128 covers the shared cell records too. *)
let weight { resolved; text } =
  (128 * Circuit.Netlist.n_nodes resolved.net)
  + match text with Some s -> String.length s | None -> 0

let create ?(capacity = default_capacity) ?(max_bytes = default_max_bytes) () =
  Cache.create ~capacity ~max_bytes ~weight ()

let cache t = t

let remember t key ?text net =
  let resolved = { net; digest = Circuit.Netlist.digest net } in
  Cache.add t key { resolved; text };
  resolved

let error code ?(details = []) message = Error { Protocol.code; message; details }

let resolve t ~max_bench_bytes spec =
  match spec with
  | Protocol.Named name -> begin
    let key = "name:" ^ name in
    match Cache.find t key with
    | Some { resolved; _ } -> Ok resolved
    | None -> begin
      match Circuit.Generators.by_name name with
      | net -> Ok (remember t key net)
      | exception Not_found ->
        error Protocol.Bad_request
          (Printf.sprintf "unknown circuit %S (expected an ISCAS85 name or inline bench text)" name)
    end
  end
  | Protocol.Bench text -> begin
    if String.length text > max_bench_bytes then
      error Protocol.Invalid_request
        (Printf.sprintf "inline bench text exceeds %d bytes" max_bench_bytes)
    else
      let key = "bench:" ^ Digest.to_hex (Digest.string text) in
      match Cache.find t key with
      | Some { resolved; text = Some stored } when String.equal stored text -> Ok resolved
      | _ -> begin
        match Circuit.Bench_io.parse_result ~name:(Protocol.circuit_name spec) text with
        | Ok net -> begin
          match Circuit.Netlist.timing_problem net with
          | None -> Ok (remember t key ~text net)
          | Some reason -> error Protocol.Invalid_request ("bench netlist: " ^ reason)
        end
        | Error { Circuit.Bench_io.line; message } ->
          error Protocol.Invalid_request
            ~details:(match line with Some l -> [ ("line", Json.Int l) ] | None -> [])
            ("bench parse error: " ^ message)
      end
  end
