(** Router-side view of one backend: ring identity, health state
    machine, probe schedule. Thread-safe record; the transition
    {e policy} lives in {!Router}.

    States: [Up] (routable) → [Suspect] (a probe or forwarded request
    failed; last-resort routing only) → [Down] (another failure;
    excluded, probed with capped-jitter backoff) → [Recovering] (a
    probe succeeded again; warm-cache handoff in progress, routable) →
    [Up]. [Draining] is entered when the backend's own [health] reports
    it (SIGTERM received): excluded from routing, its hot keys are
    handed to their new owners, and the expected death then takes it to
    [Down]. *)

type state = Up | Suspect | Down | Recovering | Draining

val state_string : state -> string
val routable : state -> bool
(** [Up] or [Recovering]. *)

type t

val create : Server.Netline.endpoint -> t
(** Starts [Up] with a probe due immediately: optimistic routing from
    the first request, but a dead backend is discovered within one
    probe tick. *)

val name : t -> string
(** Canonical endpoint string — the backend's stable ring identity. *)

val endpoint : t -> Server.Netline.endpoint
val state : t -> state
val set_state : t -> state -> unit
(** Entering a state that is not {!routable} closes the idle
    connections. *)

(** {1 Forwarding connections}

    A backend keeps up to a fixed number of open, idle connections for
    the router's forwards (no knob: the cap only bounds what a burst
    leaves open). Each serves one forward at a time. *)

val checkout : t -> Server.Client.t option
(** An idle connection, most recently used first, now owned by the
    caller; [None] when there is none. *)

val checkin : t -> Server.Client.t -> unit
(** Returns a connection after a forward that got a complete, parsed
    answer on it. It is closed instead when it is no longer open, the
    idle set is full, or the backend is not routable. *)

val close_idle : t -> unit
(** Closes every idle connection. {!set_state} does so on leaving the
    routable states. *)

val record_probe : ?rtt_s:float -> t -> ok:bool -> unit
(** Accounts one probe; failure extends the consecutive-failure streak,
    success resets it and (when [rtt_s] is given) records the probe's
    round-trip time into a bounded ring. *)

type rtt_stats = { count : int; last_s : float; p50_s : float; p95_s : float }

val rtt_stats : t -> rtt_stats option
(** Quantiles over the retained probe-RTT ring (last 128 successful
    probes); [None] before the first success. *)

val set_scraped : t -> Obs.Registry.sample list -> unit
(** Stores the backend's latest [metrics] scrape (parsed back into
    registry samples) for the router's [cluster_metrics] federation. *)

val scraped : t -> Obs.Registry.sample list
(** The last stored scrape; [[]] when the backend was never scraped. *)

val record_request_failure : t -> unit
(** A forwarded request failed on transport: extends the failure streak
    and pulls the next probe forward to now. *)

val consecutive_failures : t -> int
val schedule_probe : t -> at:float -> unit
val probe_due : t -> now:float -> bool
val to_json : t -> Server.Json.t
(** The router-[stats] shape: endpoint, state, probe counters. *)
