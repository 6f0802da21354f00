(** Levelled structured logging.

    Records carry a wall-clock timestamp, level, message, the calling
    thread's correlation id (from {!Ctx}) and free-form typed fields.
    Two output shapes share one switch:
    - text (default): [2026-08-06T12:00:00.123Z INFO [cid] msg k=v ...]
    - JSONL ({!set_json}): one JSON object per line —
      [{"ts":..., "level":"info", "msg":..., "cid":..., k:v, ...}].

    Emission is a level comparison when the record is filtered out; call
    sites guard any expensive field construction with {!would_log}.
    Output is mutex-serialized, so concurrent domains and threads never
    interleave bytes of one record. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> (level option, string) result
(** ["debug"|"info"|"warn"|"error"|"quiet"] (case-insensitive); [Ok None]
    is [quiet] — nothing is emitted. [Error] explains the accepted
    spellings. *)

val level_string : level -> string

val set_level : level option -> unit
(** [None] disables all output (quiet). Default: [Some Warn]. *)

val set_json : bool -> unit
(** Emit JSONL instead of text. Default: false. *)

val set_channel : out_channel -> unit
(** Where records go. Default: [stderr]. The channel is flushed after
    every record. *)

val would_log : level -> bool

val log : level -> ?fields:(string * Fields.t) list -> string -> unit
val debug : ?fields:(string * Fields.t) list -> string -> unit
val info : ?fields:(string * Fields.t) list -> string -> unit
val warn : ?fields:(string * Fields.t) list -> string -> unit
val error : ?fields:(string * Fields.t) list -> string -> unit
