(** Per-op latency/error objectives tracked as multi-window burn rates.

    An objective like ["analyze=50ms:99"] reads: 99% of [analyze]
    requests must complete successfully within 50 ms. Every request is
    classified good or bad (an error, or a latency above the threshold,
    is bad) into 10-second ring slots covering the last hour; the 5 m
    and 1 h windows report the bad fraction divided by the error budget
    [1 - target] — the {e burn rate}. A burn rate of 1.0 consumes the
    error budget exactly at the objective's allowed pace; sustained
    values above ~14 on the 5 m window (the classic page threshold)
    mean the monthly budget disappears within hours.

    All entry points take an optional [?now] so tests can drive the
    clock deterministically. *)

type objective = { op : string; threshold_s : float; target : float (** in (0,1) *) }

val parse_spec : string -> (objective list, string) result
(** Parses a comma-separated spec like ["analyze=50ms:99,calibrate=2s:99.9"].
    Durations accept [us]/[ms]/[s] suffixes (bare numbers are seconds). *)

type t

val create : ?now:float -> objective list -> t
val objectives : t -> objective list

val observe : ?now:float -> t -> op:string -> ok:bool -> elapsed_s:float -> unit
(** Records one request outcome against the op's objective; ops without
    an objective are ignored. *)

type window = {
  label : string;  (** ["5m"] or ["1h"] *)
  seconds : float;
  total : int;
  bad : int;
  burn_rate : float;
}

type status = { objective : objective; windows : window list }

val status : ?now:float -> t -> status list

val to_json : ?now:float -> t -> Json.t
(** The [stats] endpoint's ["slo"] section: one object per objective with
    its threshold, target and the 5m/1h window totals and burn rates. *)

val registry_samples : ?now:float -> t -> Registry.sample list
(** [nbti_slo_burn_rate{op,window}], window request/bad gauges and the
    configured target ratio, for the [metrics] endpoint. *)
