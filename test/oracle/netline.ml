(* The per-byte request-line reader the front-end used before its
   chunked one: one [input_char] per byte. [Server.Netline] must return
   the same [Line]/[Oversized]/[Eof] sequence from any byte stream. *)

open Server.Netline

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
