type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list
  | Raw of string

exception Parse_error of string
exception Type_error of string

(* --- Parsing: recursive descent over the input string. The scanner
   reads [text.[pos]] directly and copies string bodies in runs, so a
   long string costs a few allocations, not one per byte. --- *)

type parser_state = { text : string; mutable pos : int }

let fail_at st msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" st.pos msg))
let at_end st = st.pos >= String.length st.text
let advance st = st.pos <- st.pos + 1

(* [text.[pos]] is [c]; false at the end of the input. *)
let looking_at st c = st.pos < String.length st.text && String.unsafe_get st.text st.pos = c

let skip_ws st =
  while
    st.pos < String.length st.text
    && (match st.text.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance st
  done

let expect st c =
  if at_end st then fail_at st (Printf.sprintf "expected %c, found end of input" c);
  let c' = st.text.[st.pos] in
  if c' = c then advance st else fail_at st (Printf.sprintf "expected %c, found %c" c c')

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
      if at_end st then fail_at st "invalid \\u escape"
      else
        match st.text.[st.pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail_at st "invalid \\u escape"
    in
    advance st;
    v := (!v lsl 4) lor d
  done;
  !v

(* End of the run of bytes from [i] that a string body holds literally:
   the first quote, backslash or control byte, or the end of [text]. *)
let rec run_end text i =
  if i < String.length text
     && match String.unsafe_get text i with '"' | '\\' -> false | c -> c >= ' '
  then run_end text (i + 1)
  else i

let parse_escape st buf =
  advance st;
  if at_end st then fail_at st "invalid escape";
  let simple c =
    Buffer.add_char buf c;
    advance st
  in
  match st.text.[st.pos] with
  | '"' -> simple '"'
  | '\\' -> simple '\\'
  | '/' -> simple '/'
  | 'b' -> simple '\b'
  | 'f' -> simple '\012'
  | 'n' -> simple '\n'
  | 'r' -> simple '\r'
  | 't' -> simple '\t'
  | 'u' ->
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
  | _ -> fail_at st "invalid escape"

let parse_string_body st =
  expect st '"';
  let text = st.text in
  let start = st.pos in
  let e = run_end text start in
  if e < String.length text && text.[e] = '"' then begin
    (* no escapes: the body is one run *)
    st.pos <- e + 1;
    String.sub text start (e - start)
  end
  else begin
    let buf = Buffer.create (e - start + 16) in
    Buffer.add_substring buf text start (e - start);
    st.pos <- e;
    let rec loop () =
      if at_end st then fail_at st "unterminated string";
      match text.[st.pos] with
      | '"' -> advance st
      | '\\' ->
        parse_escape st buf;
        loop ()
      | c when c < ' ' -> fail_at st "unescaped control character"
      | _ ->
        let e = run_end text st.pos in
        Buffer.add_substring buf text st.pos (e - st.pos);
        st.pos <- e;
        loop ()
    in
    loop ();
    Buffer.contents buf
  end

let is_digit st =
  st.pos < String.length st.text && match st.text.[st.pos] with '0' .. '9' -> true | _ -> false

(* A literal whose value is not a finite float (1e999, or an integer
   literal hundreds of digits long) is a parse error at its first byte:
   no request field means infinity, and the printer could only write it
   back as null. *)
let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume_digits () =
    let n0 = st.pos in
    while is_digit st do
      advance st
    done;
    if st.pos = n0 then fail_at st "expected digit"
  in
  if looking_at st '-' then advance st;
  consume_digits ();
  if looking_at st '.' then begin
    is_float := true;
    advance st;
    consume_digits ()
  end;
  if looking_at st 'e' || looking_at st 'E' then begin
    is_float := true;
    advance st;
    if looking_at st '+' || looking_at st '-' then advance st;
    consume_digits ()
  end;
  let s = String.sub st.text start (st.pos - start) in
  let float () =
    let f = float_of_string s in
    if Float.is_finite f then Float f
    else begin
      st.pos <- start;
      fail_at st "number out of range"
    end
  in
  if !is_float then float ()
  else match int_of_string_opt s with Some i -> Int i | None -> float ()

let rec parse_value st =
  skip_ws st;
  if at_end st then fail_at st "unexpected end of input";
  match st.text.[st.pos] with
  | '{' ->
    advance st;
    skip_ws st;
    if looking_at st '}' then begin
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
        if looking_at st ',' then begin
          advance st;
          members ((key, v) :: acc)
        end
        else if looking_at st '}' then begin
          advance st;
          List.rev ((key, v) :: acc)
        end
        else fail_at st "expected , or } in object"
      in
      Assoc (members [])
    end
  | '[' ->
    advance st;
    skip_ws st;
    if looking_at st ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        if looking_at st ',' then begin
          advance st;
          elements (v :: acc)
        end
        else if looking_at st ']' then begin
          advance st;
          List.rev (v :: acc)
        end
        else fail_at st "expected , or ] in array"
      in
      List (elements [])
    end
  | '"' -> String (parse_string_body st)
  | 't' -> expect_keyword st "true"; Bool true
  | 'f' -> expect_keyword st "false"; Bool false
  | 'n' -> expect_keyword st "null"; Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail_at st (Printf.sprintf "unexpected character %c" c)

let of_string text =
  let st = { text; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length text then fail_at st "trailing garbage after value";
  v

(* --- Printing --- *)

let hex_digit n = "0123456789abcdef".[n]

(* Bytes that need no escape are copied in runs. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let rec from i =
    let e = run_end s i in
    Buffer.add_substring buf s i (e - i);
    if e < String.length s then begin
      (match s.[e] with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf (hex_digit (Char.code c lsr 4));
        Buffer.add_char buf (hex_digit (Char.code c land 0xF)));
      from (e + 1)
    end
  in
  from 0;
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

(* --- Accessors --- *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "array"
  | Assoc _ -> "object"
  | Raw _ -> "raw"

let type_fail want got = raise (Type_error (Printf.sprintf "expected %s, got %s" want (type_name got)))

let member key = function
  | Assoc kvs -> ( match List.assoc_opt key kvs with Some v -> v | None -> Null)
  | v -> type_fail (Printf.sprintf "object with field %S" key) v

let member_opt key v = match member key v with Null -> None | x -> Some x
let to_assoc = function Assoc kvs -> kvs | v -> type_fail "object" v
let to_list = function List xs -> xs | v -> type_fail "array" v
let to_string_exn = function String s -> s | v -> type_fail "string" v

let to_int = function
  | Int i -> i
  | Float f when Float.is_integer f && Float.abs f <= 1e15 -> int_of_float f
  | v -> type_fail "int" v

let to_float = function Float f -> f | Int i -> float_of_int i | v -> type_fail "number" v
let to_bool = function Bool b -> b | v -> type_fail "bool" v
