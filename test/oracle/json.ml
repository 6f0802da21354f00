(* The per-byte JSON codec the service used before its run-scanning
   one: [Server.Json] must decode to the same values, fail with the same
   messages at the same offsets, and print the same bytes. It is
   unchanged except for its types, which are [Server.Json]'s, so values
   compare directly. *)

open Server.Json

(* --- Parsing: plain recursive descent over the input string. --- *)

type parser_state = { text : string; mutable pos : int }

let fail_at st msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" st.pos msg))
let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.text
    && (match st.text.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail_at st (Printf.sprintf "expected %c, found %c" c c')
  | None -> fail_at st (Printf.sprintf "expected %c, found end of input" c)

let expect_keyword st kw =
  let n = String.length kw in
  if st.pos + n <= String.length st.text && String.sub st.text st.pos n = kw then
    st.pos <- st.pos + n
  else fail_at st (Printf.sprintf "expected %s" kw)

(* Encode a Unicode scalar value as UTF-8 bytes. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek st with
      | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
      | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
      | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
      | _ -> fail_at st "invalid \\u escape"
    in
    advance st;
    v := (!v lsl 4) lor d
  done;
  !v

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail_at st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'; advance st
      | Some '\\' -> Buffer.add_char buf '\\'; advance st
      | Some '/' -> Buffer.add_char buf '/'; advance st
      | Some 'b' -> Buffer.add_char buf '\b'; advance st
      | Some 'f' -> Buffer.add_char buf '\012'; advance st
      | Some 'n' -> Buffer.add_char buf '\n'; advance st
      | Some 'r' -> Buffer.add_char buf '\r'; advance st
      | Some 't' -> Buffer.add_char buf '\t'; advance st
      | Some 'u' ->
        advance st;
        let hi = parse_hex4 st in
        (* Surrogate pair for characters outside the BMP. *)
        if hi >= 0xD800 && hi <= 0xDBFF then begin
          expect st '\\';
          expect st 'u';
          let lo = parse_hex4 st in
          if lo < 0xDC00 || lo > 0xDFFF then fail_at st "unpaired surrogate";
          add_utf8 buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
        end
        else if hi >= 0xDC00 && hi <= 0xDFFF then fail_at st "unpaired surrogate"
        else add_utf8 buf hi
      | _ -> fail_at st "invalid escape");
      loop ()
    | Some c when Char.code c < 0x20 -> fail_at st "unescaped control character"
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume_digits () =
    let n0 = st.pos in
    while (match peek st with Some '0' .. '9' -> true | _ -> false) do
      advance st
    done;
    if st.pos = n0 then fail_at st "expected digit"
  in
  if peek st = Some '-' then advance st;
  consume_digits ();
  if peek st = Some '.' then begin
    is_float := true;
    advance st;
    consume_digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    consume_digits ()
  | _ -> ());
  let s = String.sub st.text start (st.pos - start) in
  if !is_float then Float (float_of_string s)
  else match int_of_string_opt s with Some i -> Int i | None -> Float (float_of_string s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail_at st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Assoc []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail_at st "expected , or } in object"
      in
      Assoc (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail_at st "expected , or ] in array"
      in
      List (elements [])
    end
  | Some '"' -> String (parse_string_body st)
  | Some 't' -> expect_keyword st "true"; Bool true
  | Some 'f' -> expect_keyword st "false"; Bool false
  | Some 'n' -> expect_keyword st "null"; Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail_at st (Printf.sprintf "unexpected character %c" c)

let of_string text =
  let st = { text; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length text then fail_at st "trailing garbage after value";
  v

(* --- Printing --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* 17 significant digits round-trip any finite float64 exactly. *)
let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else Printf.sprintf "%.17g" f

let to_string ?(minify = true) v =
  let sep_colon = if minify then ":" else ": " in
  let sep_comma = if minify then "," else ", " in
  let buf = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_string buf s
    | Raw s -> Buffer.add_string buf s
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf sep_comma;
          emit x)
        xs;
      Buffer.add_char buf ']'
    | Assoc kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string buf sep_comma;
          escape_string buf k;
          Buffer.add_string buf sep_colon;
          emit x)
        kvs;
      Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf
