(* Newline-delimited socket plumbing: endpoint addressing and the
   bounded request-line reader that Frontend's connection loop reads
   through. *)

type endpoint = Unix_socket of string | Tcp of string * int

let endpoint_of_string s =
  let tcp rest =
    match String.rindex_opt rest ':' with
    | Some i -> begin
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ -> Error (Printf.sprintf "bad TCP port %S" port)
    end
    | None -> Error "tcp endpoint must look like tcp:HOST:PORT"
  in
  if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_socket (String.sub s 5 (String.length s - 5)))
  else if String.length s >= 4 && String.sub s 0 4 = "tcp:" then
    tcp (String.sub s 4 (String.length s - 4))
  else if s <> "" then Ok (Unix_socket s)
  else Error "empty endpoint"

let endpoint_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr_of_endpoint = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    let ip =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    (Unix.PF_INET, Unix.ADDR_INET (ip, port))

(* Bounded request-line reader: a line longer than [max_bytes] is
   drained (framing stays intact) and reported, never buffered whole.
   A line cut off by EOF is returned as-is — its JSON parse fails with a
   structured [parse_error], which is the right answer for a client that
   died mid-request. *)
type read_line = Line of string | Oversized | Eof

let read_request_line ic ~max_bytes =
  let buf = Buffer.create 256 in
  let rec drain () =
    match input_char ic with exception End_of_file -> () | '\n' -> () | _ -> drain ()
  in
  let rec go () =
    match input_char ic with
    | exception End_of_file -> if Buffer.length buf = 0 then Eof else Line (Buffer.contents buf)
    | '\n' -> Line (Buffer.contents buf)
    | c ->
      Buffer.add_char buf c;
      if Buffer.length buf > max_bytes then begin
        drain ();
        Oversized
      end
      else go ()
  in
  go ()
