(* One routed-to backend as the router sees it: its stable ring
   identity (the canonical endpoint string), a health state machine
   driven by probes and request failures, and the probe schedule. All
   fields are guarded by one mutex; transitions themselves are decided
   by the router (it owns the policy), this module owns the record. *)

type state = Up | Suspect | Down | Recovering | Draining

let state_string = function
  | Up -> "up"
  | Suspect -> "suspect"
  | Down -> "down"
  | Recovering -> "recovering"
  | Draining -> "draining"

(* Routable states: Up is the normal case; Recovering backends are
   alive (they answered the probe that started their handoff) and may
   take traffic while their cache warms. Suspect is deliberately not
   routable-by-default — the router uses Suspect backends only as a
   last resort when no Up/Recovering owner exists. *)
let routable = function Up | Recovering -> true | Suspect | Down | Draining -> false

(* Enough RTT history for quantiles over the last few minutes of
   healthy probing without unbounded growth. *)
let rtt_capacity = 128

(* Idle forwarding connections kept per backend. A forward holds one
   for its round trip, so the router needs about as many as it has
   forwards in flight to this backend at once, and its own client
   connections bound that; the fleet's clients keep a handful each.
   Past the cap, a burst's extra connections close after their forward
   instead of each holding a descriptor here and, in the backend, a
   thread and a 64 KiB read chunk. *)
let max_idle = 8

type t = {
  name : string;
  endpoint : Server.Netline.endpoint;
  lock : Mutex.t;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable next_probe_at : float; (* absolute Unix time; 0 = due now *)
  mutable probes : int;
  mutable probe_failures : int;
  mutable last_change : float;
  rtts : float array; (* ring of successful-probe RTTs, seconds *)
  mutable rtt_count : int; (* total recorded; min with capacity = filled *)
  mutable last_rtt_s : float;
  mutable scraped : Obs.Registry.sample list; (* last metrics scrape *)
  mutable idle : Server.Client.t list; (* open forwarding connections, most recent first *)
}

let create endpoint =
  {
    name = Server.Netline.endpoint_to_string endpoint;
    endpoint;
    lock = Mutex.create ();
    state = Up;
    consecutive_failures = 0;
    next_probe_at = 0.0;
    probes = 0;
    probe_failures = 0;
    last_change = Unix.gettimeofday ();
    rtts = Array.make rtt_capacity 0.0;
    rtt_count = 0;
    last_rtt_s = 0.0;
    scraped = [];
    idle = [];
  }

let name t = t.name
let endpoint t = t.endpoint

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let state t = with_lock t (fun () -> t.state)

(* Descriptors are closed outside the lock. *)
let take_idle t =
  let idle = t.idle in
  t.idle <- [];
  idle

let close_idle t = List.iter Server.Client.close (with_lock t (fun () -> take_idle t))

let set_state t s =
  let dropped =
    with_lock t (fun () ->
        if t.state <> s then begin
          t.state <- s;
          t.last_change <- Unix.gettimeofday ()
        end;
        if routable s then [] else take_idle t)
  in
  List.iter Server.Client.close dropped

let checkout t =
  with_lock t (fun () ->
      match t.idle with
      | c :: rest ->
        t.idle <- rest;
        Some c
      | [] -> None)

let checkin t c =
  let kept =
    with_lock t (fun () ->
        let keep =
          routable t.state && Server.Client.connected c && List.length t.idle < max_idle
        in
        if keep then t.idle <- c :: t.idle;
        keep)
  in
  if not kept then Server.Client.close c

let record_probe ?rtt_s t ~ok =
  with_lock t (fun () ->
      t.probes <- t.probes + 1;
      if ok then begin
        t.consecutive_failures <- 0;
        match rtt_s with
        | Some r when r >= 0.0 ->
          t.rtts.(t.rtt_count mod rtt_capacity) <- r;
          t.rtt_count <- t.rtt_count + 1;
          t.last_rtt_s <- r
        | _ -> ()
      end
      else begin
        t.probe_failures <- t.probe_failures + 1;
        t.consecutive_failures <- t.consecutive_failures + 1
      end)

type rtt_stats = { count : int; last_s : float; p50_s : float; p95_s : float }

(* Quantiles over the retained ring (nearest-rank on a sorted copy);
   the ring is small enough that sorting per scrape is nothing. *)
let rtt_stats t =
  with_lock t (fun () ->
      if t.rtt_count = 0 then None
      else begin
        let n = min t.rtt_count rtt_capacity in
        let sorted = Array.sub t.rtts 0 n in
        Array.sort compare sorted;
        let q p = sorted.(min (n - 1) (int_of_float (Float.of_int n *. p))) in
        Some { count = t.rtt_count; last_s = t.last_rtt_s; p50_s = q 0.5; p95_s = q 0.95 }
      end)

let set_scraped t samples = with_lock t (fun () -> t.scraped <- samples)

let scraped t = with_lock t (fun () -> t.scraped)

(* A request-path failure also counts against the probe streak so the
   backoff schedule sees it, and pulls the next probe forward — the
   router wants confirmation quickly, not at the leisurely healthy
   cadence. *)
let record_request_failure t =
  with_lock t (fun () ->
      t.consecutive_failures <- t.consecutive_failures + 1;
      t.next_probe_at <- 0.0)

let consecutive_failures t = with_lock t (fun () -> t.consecutive_failures)
let schedule_probe t ~at = with_lock t (fun () -> t.next_probe_at <- at)
let probe_due t ~now = with_lock t (fun () -> now >= t.next_probe_at)

let to_json t =
  let rtt = rtt_stats t in
  with_lock t (fun () ->
      Server.Json.Assoc
        ([
           ("endpoint", Server.Json.String t.name);
           ("state", Server.Json.String (state_string t.state));
           ("probes", Server.Json.Int t.probes);
           ("probe_failures", Server.Json.Int t.probe_failures);
           ("consecutive_failures", Server.Json.Int t.consecutive_failures);
           ("since_change_s", Server.Json.Float (Unix.gettimeofday () -. t.last_change));
         ]
        @
        match rtt with
        | None -> []
        | Some r ->
          [
            ( "probe_rtt",
              Server.Json.Assoc
                [
                  ("count", Server.Json.Int r.count);
                  ("last_ms", Server.Json.Float (r.last_s *. 1e3));
                  ("p50_ms", Server.Json.Float (r.p50_s *. 1e3));
                  ("p95_ms", Server.Json.Float (r.p95_s *. 1e3));
                ] );
          ]))
