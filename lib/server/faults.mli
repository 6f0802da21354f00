(** Fault-injection harness for chaos-testing the serving layer.

    A fault plan is a comma-separated list of rules, each
    [site=action[:param][@N]]:

    - {b sites} — ["write"] (response serialization onto the socket, in
      {!Frontend}'s connection loop, so on both [serve] and [route]);
      inside the service, ["admission"] (request admission) and
      ["compute"] (job execution inside a worker); and, inside the fleet
      router, ["connect"] (dialing a backend for a forwarded request),
      ["probe"] (a health probe) and ["handoff"] (a warm-cache handoff
      transfer);
    - {b actions} — [delay:MS] (sleep before proceeding), [fail] (raise
      {!Injected} as if the worker crashed), [truncate] (cut the response
      line short and drop the connection), [shed] (force admission
      control to refuse the request);
    - [@N] — arm the rule for the first [N] matching hits only, then
      disarm (e.g. [compute=fail\@2] makes exactly two requests fail —
      the shape a retrying client must survive). Without [@N] the rule
      fires on every hit.

    Plans come from the [--faults SPEC] flag of [serve] and [route] or
    the [NBTI_FAULTS] environment variable; an empty/absent spec is
    {!none}. Each process consults {!fire} at its named sites and
    applies whatever actions are armed; fired counts are reported under
    ["faults"] in [stats]. *)

type action = Delay_ms of int | Fail | Truncate | Shed

exception Injected of string
(** Raised by the service at a [fail] site; never escapes the request
    handler (it maps to an [internal_error] response). *)

type t

val none : t
(** The empty plan; {!fire} on it allocates nothing. *)

val is_empty : t -> bool

val parse : string -> (t, string) result
(** Parse a plan spec; [Error] explains the first offending rule. *)

val fire : t -> site:string -> action list
(** Actions armed at [site], in plan order; decrements each fired rule's
    remaining budget. Thread-safe. *)

val action_to_string : action -> string

val to_json : t -> Json.t
(** Per-rule site/action/budget/remaining/fired — the [stats] shape. *)
