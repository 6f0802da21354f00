(** A small self-contained JSON codec (RFC 8259 subset): parse and
    print, stdlib only. It is the one JSON writer of the project: the
    analysis service wire protocol ([Server.Json] re-exports it), the
    JSONL log records, the Chrome trace export and the bench record all
    print through it.

    Numbers are kept as OCaml [float]s unless they are syntactically
    integral and fit an [int], in which case they parse as [Int] — the
    protocol uses [Int] for counts and [Float] for physical quantities.
    Floats print with 17 significant digits so every finite [float]
    round-trips bit-exactly through [to_string] / [of_string]; this is
    what lets the result cache and the wire protocol preserve analysis
    numbers without drift. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list
  | Raw of string
      (** JSON text already rendered by {!to_string}, or already
          validated by {!of_string}: the printer copies it verbatim, and
          only the printer reads it (the accessors below raise
          {!Type_error} on it, and {!of_string} never returns it). A
          stored result or a forwarded answer is spliced into a response
          this way instead of being printed again. *)

exception Parse_error of string
(** Raised by {!of_string} with a position-annotated message. *)

val of_string : string -> t
(** @raise Parse_error on malformed input, trailing garbage, or a
    number literal whose value is not a finite float (such as [1e999]),
    the last at the literal's first byte. *)

val to_string : ?minify:bool -> t -> string
(** One-line JSON (the service protocol is newline-delimited, so the
    printer never emits ['\n']). [minify] (default true) drops the
    spaces after [':'] and [',']. Non-finite floats print as [null].
    {!Raw} text is copied as it is, whatever [minify] says. *)

(** {1 Accessors}

    All raise {!Type_error} with a contextual message on shape
    mismatches; the service maps that exception to a [bad_request]
    wire error. *)

exception Type_error of string

val member : string -> t -> t
(** Field of an [Assoc]; [Null] when absent. *)

val member_opt : string -> t -> t option
(** Field of an [Assoc]; [None] when absent or [Null]. *)

val to_assoc : t -> (string * t) list
val to_list : t -> t list
val to_string_exn : t -> string
val to_int : t -> int
(** Accepts [Int] and integral [Float]. *)

val to_float : t -> float
(** Accepts [Float] and [Int]. *)

val to_bool : t -> bool
