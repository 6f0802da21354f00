(** Fault-injection harness for chaos-testing the serving layer.

    A fault plan is a comma-separated list of rules, each
    [site=action[@N]]. Every site takes [delay:MS] (sleep [MS] ms before
    proceeding) and exactly one failure action, its own:

    {v
    site       where it fires                        failure action
    admission  request admission (serve)             shed      (refuse as overloaded)
    compute    job execution in a worker (serve)     fail      (raise Injected)
    write      response write (serve and route)      truncate  (half a line, then disconnect)
    connect    dialing a backend to forward (route)  fail      (the attempt is unavailable)
    probe      a backend health probe (route)        fail      (the probe fails)
    handoff    a warm-cache handoff (route)          fail      (the handoff aborts)
    v}

    [@N] arms the rule for the first [N] matching hits only, then
    disarms it (e.g. [compute=fail\@2] makes exactly two requests fail —
    the shape a retrying client must survive). Without [@N] the rule
    fires on every hit.

    Plans come from the [--faults SPEC] flag of [serve] and [route] or
    the [NBTI_FAULTS] environment variable; an empty/absent spec is
    {!none}. Each process calls {!fire} at its named sites and acts out
    the site's failure action when it returns [true]; fired counts are
    reported under ["faults"] in [stats]. *)

exception Injected of string
(** Raised by the service at the [compute] site; never escapes the request
    handler (it maps to an [internal_error] response). *)

type t

val none : t
(** The empty plan; {!fire} on it allocates nothing. *)

val is_empty : t -> bool

val parse : string -> (t, string) result
(** Parse a plan spec; [Error] explains the first offending rule: an
    unknown site or action, a bad parameter or budget, or a failure
    action the site does not take (naming the site). *)

val fire : t -> site:string -> bool
(** Fires every rule armed at [site] (decrementing its remaining
    budget), sleeps their summed delays, and returns whether the site's
    failure action fired. Thread-safe; the sleep holds no lock. *)

val to_json : t -> Json.t
(** Per-rule site/action/budget/remaining/fired — the [stats] shape. *)
