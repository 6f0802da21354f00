(* The serving front-end's byte-level codecs against the per-byte
   references in [Oracle]: the chunked request-line reader
   ([Server.Netline]) must return what [Oracle.Netline] returns from the
   same bytes, and the run-scanning JSON codec ([Server.Json]) must
   decode, fail and print exactly as [Oracle.Json] does, except that a
   number literal whose value is not finite is now a parse error. *)

module Json = Server.Json
module Netline = Server.Netline

let chunk = Netline.chunk_bytes

(* --- Request-line reader --- *)

let show_read = function
  | Netline.Line s ->
    Printf.sprintf "Line(%d bytes, %S)" (String.length s)
      (if String.length s > 24 then String.sub s 0 24 ^ "..." else s)
  | Netline.Oversized -> "Oversized"
  | Netline.Eof -> "Eof"

let show_reads reads = String.concat "; " (List.map show_read reads)

let chunked ~max_bytes ic =
  let r = Netline.reader ic in
  fun () -> Netline.read_request_line r ~max_bytes

let per_byte ~max_bytes ic () = Oracle.Netline.read_request_line ic ~max_bytes

(* Every read up to the first [Eof], and one more after it. *)
let read_all next =
  let rec go acc =
    match next () with Netline.Eof -> List.rev (next () :: Netline.Eof :: acc) | r -> go (r :: acc)
  in
  go []

(* [stream] written through a socketpair, cut into [pieces] (what is
   left after the last piece goes in one write), then half-closed. *)
let reads_through_socket ~pieces stream reader =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ic = Unix.in_channel_of_descr r in
  let writer =
    Thread.create
      (fun () ->
        let n = String.length stream in
        let rec go pos = function
          | _ when pos >= n -> ()
          | [] -> ignore (Unix.write_substring w stream pos (n - pos))
          | k :: rest ->
            let k = min k (n - pos) in
            ignore (Unix.write_substring w stream pos k);
            go (pos + k) rest
        in
        (try go 0 pieces with Unix.Unix_error _ -> ());
        Unix.shutdown w Unix.SHUTDOWN_SEND)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      Thread.join writer;
      Unix.close w)
    (fun () -> read_all (reader ic))

(* Lines around the lengths that matter: empty, short, max_bytes - 1 to
   max_bytes + 1, and a chunk's length, which straddles a refill; LF or
   CRLF endings (the CR counts toward the bound); sometimes a last line
   cut off by EOF. A stream is up to six lines in up to eight writes. *)
let stream_gen =
  let open QCheck.Gen in
  let* max_bytes = oneof [ int_range 0 40; int_range (chunk - 4) (chunk + 4) ] in
  let length =
    oneof
      [
        return 0;
        int_range 1 12;
        map (fun d -> max 0 (max_bytes + d)) (int_range (-1) 1);
        int_range (chunk - 3) (chunk + 3);
      ]
  in
  let body = string_size ~gen:(oneofl [ 'a'; '{'; '"'; ' '; '\r'; '\000'; '\xff' ]) length in
  let line =
    let* b = body in
    let+ ending = oneofl [ "\n"; "\r\n" ] in
    b ^ ending
  in
  let* lines = list_size (int_range 0 6) line in
  let* cut_off = frequency [ (2, return ""); (1, body) ] in
  let+ pieces = list_size (int_range 1 8) (oneof [ int_range 1 16; int_range 1 (2 * chunk) ]) in
  (max_bytes, String.concat "" lines ^ cut_off, pieces)

let prop_reader_matches_per_byte =
  QCheck.Test.make ~name:"chunked reader = per-byte reader, any write pieces" ~count:60
    (QCheck.make
       ~print:(fun (max_bytes, stream, pieces) ->
         Printf.sprintf "max_bytes %d, %d-byte stream, pieces [%s]" max_bytes (String.length stream)
           (String.concat "; " (List.map string_of_int pieces)))
       stream_gen)
    (fun (max_bytes, stream, pieces) ->
      let want = reads_through_socket ~pieces stream (per_byte ~max_bytes) in
      let got = reads_through_socket ~pieces stream (chunked ~max_bytes) in
      got = want
      || QCheck.Test.fail_reportf "chunked: %s\nper-byte: %s" (show_reads got) (show_reads want))

(* A regular file fills every refill, so the chunk boundaries fall at
   fixed stream offsets: the first line ends 10 bytes short of one, the
   second straddles it, the fourth spans a whole chunk. *)
let test_reader_chunk_boundary () =
  let max_bytes = chunk + 8 in
  let lines =
    [ String.make (chunk - 10) 'a'; String.make 20 'b'; ""; String.make (chunk + 8) 'c'; "x\r" ]
  in
  let stream = String.concat "\n" (lines @ [ String.make (chunk + 9) 'd'; "cut" ]) in
  let path = Filename.temp_file "nbti_wire" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc stream);
      let reads reader =
        In_channel.with_open_bin path (fun ic -> read_all (reader ~max_bytes ic))
      in
      let want = reads per_byte in
      Alcotest.(check string) "chunked = per-byte" (show_reads want) (show_reads (reads chunked));
      Alcotest.(check string) "the reads"
        (show_reads
           (List.map (fun l -> Netline.Line l) lines
           @ [ Netline.Oversized; Netline.Line "cut"; Netline.Eof; Netline.Eof ]))
        (show_reads want))

(* --- JSON codec --- *)

(* Bytes a string may hold: quotes, backslashes, every control byte,
   DEL, ASCII letters, 2- to 4-byte UTF-8 (the 4-byte ones are the
   characters a surrogate pair escapes) and stray high bytes. *)
let byte c = String.make 1 (Char.chr c)

let char_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ "\""; "\\"; "/"; "\x7f" ];
        map byte (int_range 0 0x1f);
        map byte (int_range (Char.code 'a') (Char.code 'z'));
        oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e"; "\xf0\x9f\x98\x80" ];
        map byte (int_range 0x80 0xff);
      ])

let string_gen = QCheck.Gen.(map (String.concat "") (list_size (int_range 0 12) char_gen))

(* -0.0 is left out: it prints as "-0", which reads back as [Int 0]
   (integer syntax wins), so it does not survive a round trip. *)
let float_gen =
  QCheck.Gen.(
    map
      (fun f -> if f = 0.0 then 0.0 else f)
      (oneof [ float; oneofl [ 0.1; -2.5; 1e300; 5e-324; max_float; min_float; nan; infinity ] ]))

let int_gen = QCheck.Gen.(oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0 ] ])

let value_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int_gen;
                 map (fun f -> Json.Float f) float_gen;
                 map (fun s -> Json.String s) string_gen;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) (self (n / 3))));
                 ( 1,
                   map
                     (fun kvs -> Json.Assoc kvs)
                     (list_size (int_range 0 4) (pair string_gen (self (n / 3)))) );
               ]))

let arb_value = QCheck.make ~print:(fun v -> Json.to_string v) value_gen

let prop_round_trip =
  QCheck.Test.make ~name:"to_string (of_string (to_string v)) = to_string v" ~count:500 arb_value
    (fun v ->
      let s = Json.to_string v in
      Json.to_string (Json.of_string s) = s
      && Json.to_string (Json.of_string (Json.to_string ~minify:false v)) = s)

let prop_encoder_matches_reference =
  QCheck.Test.make ~name:"to_string = per-byte encoder" ~count:500 arb_value (fun v ->
      List.for_all
        (fun minify -> Json.to_string ~minify v = Oracle.Json.to_string ~minify v)
        [ true; false ])

(* Every byte value, in one string and as a key: printed as the
   reference prints it, and read back unchanged. *)
let test_every_byte () =
  let all = String.init 256 Char.chr in
  let v = Json.Assoc [ (all, Json.List [ Json.String all; Json.String (all ^ all) ]) ] in
  let s = Json.to_string v in
  Alcotest.(check string) "printed as the reference" (Oracle.Json.to_string v) s;
  Alcotest.(check bool) "read back" true (Json.of_string s = v)

(* Strings written with every spelling the decoder accepts: raw where
   allowed, the short escapes, \u in either case, and surrogate pairs
   for characters beyond the BMP. *)
let utf8 code =
  let b = Buffer.create 4 in
  Buffer.add_utf_8_uchar b (Uchar.of_int code);
  Buffer.contents b

let spelled_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        int_range 0 0x7f;
        int_range 0x80 0xd7ff;
        int_range 0xe000 0xffff;
        int_range 0x10000 0x10ffff;
      ]
  in
  let spell code =
    let hex4 upper n = Printf.sprintf (if upper then "\\u%04X" else "\\u%04x") n in
    let escaped =
      let* upper = bool in
      if code < 0x10000 then return (hex4 upper code)
      else
        let c = code - 0x10000 in
        return (hex4 upper (0xD800 lor (c lsr 10)) ^ hex4 upper (0xDC00 lor (c land 0x3FF)))
    in
    let short =
      List.assoc_opt code
        [
          (0x22, "\\\"");
          (0x5c, "\\\\");
          (0x2f, "\\/");
          (0x08, "\\b");
          (0x0c, "\\f");
          (0x0a, "\\n");
          (0x0d, "\\r");
          (0x09, "\\t");
        ]
    in
    let raw = if code < 0x20 || code = 0x22 || code = 0x5c then [] else [ return (utf8 code) ] in
    oneof (escaped :: raw @ Option.to_list (Option.map return short))
  in
  let+ pairs =
    list_size (int_range 0 16)
      (let* code = scalar in
       let+ spelling = spell code in
       (utf8 code, spelling))
  in
  (String.concat "" (List.map fst pairs), "\"" ^ String.concat "" (List.map snd pairs) ^ "\"")

let prop_spellings_decode =
  QCheck.Test.make ~name:"escaped and raw spellings decode to their UTF-8" ~count:500
    (QCheck.make ~print:snd spelled_gen)
    (fun (want, text) ->
      Json.of_string text = Json.String want && Oracle.Json.of_string text = Json.String want)

(* The offset a parse error names, "at byte N: ..." *)
let error_offset m = Scanf.sscanf m "at byte %d: " Fun.id

let is_out_of_range m =
  let suffix = ": number out of range" in
  let n = String.length m and k = String.length suffix in
  n >= k && String.sub m (n - k) k = suffix

(* The number literal at [pos] of [text] (JSON's grammar) has a value
   that is not finite. *)
let non_finite_literal text pos =
  Str.string_match (Str.regexp "-?[0-9]+\\(\\.[0-9]+\\)?\\([eE][-+]?[0-9]+\\)?") text pos
  && not (Float.is_finite (float_of_string (Str.matched_string text)))

let mutation_gen =
  let open QCheck.Gen in
  let* v = value_gen in
  let s = Json.to_string v in
  let edit s =
    let n = String.length s in
    let* at = int_bound n in
    let* c =
      oneofl
        ([ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '-'; '.'; 'e'; '9'; 'u'; 'n'; ' ' ]
        @ [ '\t'; '\n'; '\000'; '\xff' ])
    in
    let before = String.sub s 0 at and from = String.sub s at (n - at) in
    let after = if at < n then String.sub s (at + 1) (n - at - 1) else "" in
    oneofl
      [
        before ^ String.make 1 c ^ after (* replace *);
        before ^ String.make 1 c ^ from (* insert *);
        before ^ after (* delete *);
        before (* truncate *);
        before ^ "1e999" ^ from;
      ]
  in
  let* k = int_range 1 3 in
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  go k s

let decode f text = match f text with v -> Ok v | exception Json.Parse_error m -> Error m

let prop_mutations_match_reference =
  QCheck.Test.make ~name:"mutated input: reference's value or error; Parse_error only" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") mutation_gen)
    (fun text ->
      let n = String.length text in
      match decode Json.of_string text with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | got -> (
        (match got with
        | Error m ->
          let at = error_offset m in
          if at < 0 || at > n then QCheck.Test.fail_reportf "offset %d outside [0, %d]" at n
        | Ok _ -> ());
        match (got, decode Oracle.Json.of_string text) with
        | Ok a, Ok b -> Json.to_string a = Json.to_string b && a = b
        | Error m, Error m' when m = m' -> true
        | Error m, _ when is_out_of_range m -> non_finite_literal text (error_offset m)
        | Ok _, Error m' -> QCheck.Test.fail_reportf "accepted; reference: %s" m'
        | Error m, Ok _ -> QCheck.Test.fail_reportf "%s; the reference accepted" m
        | Error m, Error m' -> QCheck.Test.fail_reportf "%s; reference: %s" m m'))

let test_out_of_range_numbers () =
  List.iter
    (fun (text, at) ->
      match Json.of_string text with
      | v -> Alcotest.fail (Printf.sprintf "%s decoded as %s" text (Json.to_string v))
      | exception Json.Parse_error m ->
        Alcotest.(check string) text (Printf.sprintf "at byte %d: number out of range" at) m)
    [
      ("1e999", 0);
      ("-1e999", 0);
      ("[0, 1E+400]", 4);
      ("{\"x\": -2.5e308}", 6);
      (String.make 400 '9', 0);
    ];
  (* the largest finite values still decode *)
  Alcotest.(check bool) "1.7976931348623157e308" true
    (Json.of_string "1.7976931348623157e308" = Json.Float max_float);
  Alcotest.(check bool) "underflow to zero is finite" true
    (Json.of_string "1e-999" = Json.Float 0.0)

(* Decoding an inline .bench upload (every line break escaped, like the
   benchmark's inline requests) allocates fewer minor words than a
   quarter of its bytes; one [Some c] per byte cost two words each. *)
let test_decode_allocation () =
  let text =
    Json.to_string (Json.String (Circuit.Bench_io.to_string (Circuit.Generators.by_name "c880")))
  in
  let runs = 50 in
  ignore (Sys.opaque_identity (Json.of_string text));
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (Json.of_string text))
  done;
  let words = int_of_float ((Gc.minor_words () -. w0) /. float_of_int runs) in
  Alcotest.(check bool)
    (Printf.sprintf "%d minor words for %d bytes" words (String.length text))
    true
    (String.length text > 16_000 && words < String.length text / 4)

(* --- Responses from rendered bytes --- *)

module Protocol = Server.Protocol

let id_gen = QCheck.Gen.(option string_gen)

(* Payloads as a service stores them: mostly objects, sometimes empty,
   sometimes not an object at all (a cache_import can store one). *)
let payload_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun kvs -> Json.Assoc kvs) (list_size (int_range 1 6) (pair string_gen value_gen)));
        (1, return (Json.Assoc []));
        (1, value_gen);
      ])

let show_response (id, v, hit) =
  Printf.sprintf "id %s, hit %b, payload %s"
    (match id with Some s -> Printf.sprintf "%S" s | None -> "none")
    hit (Json.to_string v)

(* The tree a service answered a stored payload with before it stored
   bytes: "cached" appended to an object, anything else as it is. *)
let with_cached payload hit =
  match payload with
  | Json.Assoc fields -> Json.Assoc (fields @ [ ("cached", Json.Bool hit) ])
  | other -> other

let prop_cached_result =
  QCheck.Test.make ~name:"stored-bytes answer = the tree with cached appended" ~count:1000
    (QCheck.make ~print:show_response QCheck.Gen.(triple id_gen payload_gen bool))
    (fun (id, payload, hit) ->
      let spliced =
        Json.to_string (Protocol.ok_response ~id (Protocol.cached_result (Json.to_string payload) ~hit))
      in
      let printed = Json.to_string (Protocol.ok_response ~id (with_cached payload hit)) in
      spliced = printed || QCheck.Test.fail_reportf "spliced %s\nprinted %s" spliced printed)

(* A backend for the router properties: every request line it reads on
   any connection is answered with the current [answer]. *)
let canned_backend () =
  let path = Filename.temp_file "nbti_wire" ".sock" in
  Sys.remove path;
  let answer = ref "" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  let serve fd =
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    try
      while true do
        ignore (input_line ic);
        output_string oc !answer;
        output_char oc '\n';
        flush oc
      done
    with End_of_file | Sys_error _ -> Unix.close fd
  in
  ignore
    (Thread.create
       (fun () ->
         while true do
           let fd, _ = Unix.accept listener in
           ignore (Thread.create serve fd)
         done)
       ());
  (Server.Netline.Unix_socket path, answer)

let router_with_canned_backend =
  lazy
    (let endpoint, answer = canned_backend () in
     (Fleet.Router.create [ endpoint ], answer))

(* The router's answer to an analyze request with [id] when the backend
   answers [line]. *)
let routed ~id line =
  let router, answer = Lazy.force router_with_canned_backend in
  answer := line;
  let request =
    Json.Assoc
      ((("v", Json.Int 1) :: (match id with Some s -> [ ("id", Json.String s) ] | None -> []))
      @ [ ("op", Json.String "analyze"); ("circuit", Json.String "c17") ])
  in
  Fleet.Router.handle_line router (Json.to_string request)

let show_answer (id, line) =
  Printf.sprintf "id %s, backend answer %s"
    (match id with Some s -> Printf.sprintf "%S" s | None -> "none")
    line

let prop_router_passes_bytes_through =
  QCheck.Test.make ~name:"routed bytes = ok_response ~id of the parsed backend result" ~count:300
    (QCheck.make ~print:show_answer
       QCheck.Gen.(
         pair id_gen (map (fun v -> Json.to_string (Protocol.ok_response ~id:None v)) value_gen)))
    (fun (id, line) ->
      let got = routed ~id line in
      let want =
        Json.to_string (Protocol.ok_response ~id (Json.member "result" (Json.of_string line)))
      in
      (match Protocol.forwarded_result ~line (Json.of_string line) with
      | Json.Raw _ -> ()
      | _ -> QCheck.Test.fail_report "the result was printed again, not passed through");
      got = want || QCheck.Test.fail_reportf "routed %s\nwant   %s" got want)

(* Valid answers in other layouts: whitespace between tokens, inside
   the result or around it, and members in another order. *)
let other_layout_gen =
  let open QCheck.Gen in
  let* v = value_gen in
  let result = Json.to_string v and loose = Json.to_string ~minify:false v in
  let+ layout =
    oneofl
      [
        Json.to_string ~minify:false (Protocol.ok_response ~id:None v);
        {|{"v":1,"ok":true,"result":|} ^ loose ^ "}";
        {|{"v":1,"ok":true,"result": |} ^ result ^ "}";
        {|{"v":1,"ok":true,"result":|} ^ result ^ "\t}";
        {| {"v":1,"ok":true,"result":|} ^ result ^ "} ";
        {|{"ok":true,"v":1,"result":|} ^ result ^ "}";
      ]
  in
  layout

let prop_router_other_layouts =
  QCheck.Test.make ~name:"a backend answer in another layout still routes correctly" ~count:300
    (QCheck.make ~print:show_answer QCheck.Gen.(pair id_gen other_layout_gen))
    (fun (id, line) ->
      let got = routed ~id line in
      let want = Protocol.ok_response ~id (Json.member "result" (Json.of_string line)) in
      (not (String.contains got '\n'))
      && Json.of_string got = want
      || QCheck.Test.fail_reportf "routed %s\nwant   %s" got (Json.to_string want))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "wire"
    [
      ( "netline",
        Alcotest.test_case "chunk boundaries = per-byte" `Quick test_reader_chunk_boundary
        :: List.map QCheck_alcotest.to_alcotest [ prop_reader_matches_per_byte ] );
      ( "json",
        [
          Alcotest.test_case "every byte" `Quick test_every_byte;
          Alcotest.test_case "out-of-range numbers" `Quick test_out_of_range_numbers;
          Alcotest.test_case "decode allocation" `Quick test_decode_allocation;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_round_trip;
              prop_encoder_matches_reference;
              prop_spellings_decode;
              prop_mutations_match_reference;
            ] );
      ( "answers",
        List.map QCheck_alcotest.to_alcotest
          [ prop_cached_result; prop_router_passes_bytes_through; prop_router_other_layouts ] );
    ]
