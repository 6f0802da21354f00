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

(* Bounded request-line reader. Each connection owns one: [input]
   refills a fixed chunk, the chunk is scanned for ['\n'], and the bytes
   after a line wait there for the next, pipelined, request. A line
   inside one chunk costs one copy; only a line that straddles refills
   is gathered in a buffer. A line longer than [max_bytes] is drained
   (framing stays intact) and reported, never buffered whole. A line cut
   off by EOF is returned as-is: its JSON parse fails with a structured
   [parse_error], which is the right answer for a client that died
   mid-request. *)
type read_line = Line of string | Oversized | Eof

let chunk_bytes = 65536

(* The unread bytes are [chunk.[pos .. len-1]]. *)
type reader = { ic : in_channel; chunk : Bytes.t; mutable pos : int; mutable len : int }

let reader ic = { ic; chunk = Bytes.create chunk_bytes; pos = 0; len = 0 }

(* Replaces the (consumed) chunk with the next bytes; false at EOF. *)
let refill r =
  r.pos <- 0;
  r.len <- input r.ic r.chunk 0 chunk_bytes;
  r.len > 0

(* Index of the first ['\n'] at or after [i] in the unread bytes, or
   [len] when there is none. *)
let rec newline_from r i =
  if i = r.len || Bytes.unsafe_get r.chunk i = '\n' then i else newline_from r (i + 1)

let rec drain r =
  if r.pos < r.len || refill r then begin
    let nl = newline_from r r.pos in
    if nl < r.len then r.pos <- nl + 1
    else begin
      r.pos <- r.len;
      drain r
    end
  end

let read_request_line r ~max_bytes =
  (* [acc] holds the part of the line taken from earlier chunks. *)
  let rec go acc =
    if r.pos = r.len && not (refill r) then
      match acc with None -> Eof | Some b -> Line (Buffer.contents b)
    else begin
      let nl = newline_from r r.pos in
      let seg = nl - r.pos in
      let have = match acc with None -> 0 | Some b -> Buffer.length b in
      if have + seg > max_bytes then begin
        drain r;
        Oversized
      end
      else if nl < r.len then begin
        let line =
          match acc with
          | None -> Bytes.sub_string r.chunk r.pos seg
          | Some b ->
            Buffer.add_subbytes b r.chunk r.pos seg;
            Buffer.contents b
        in
        r.pos <- nl + 1;
        Line line
      end
      else begin
        let b = match acc with Some b -> b | None -> Buffer.create (2 * seg) in
        Buffer.add_subbytes b r.chunk r.pos seg;
        r.pos <- r.len;
        go (Some b)
      end
    end
  in
  go None
