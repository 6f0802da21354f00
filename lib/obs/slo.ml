(* Multi-window SLO burn rates over 10-second ring slots. One hour of
   slots is kept per objective; the 5m/1h windows are sums over the
   newest 30/360 slots, so both windows cost O(window) at read time and
   O(1) per observation. *)

type objective = { op : string; threshold_s : float; target : float }

let slot_s = 10.0
let n_slots = 360 (* one hour *)
let windows = [ ("5m", 300.0); ("1h", 3600.0) ]

type track = {
  totals : int array;
  bads : int array;
  mutable head : int;  (* absolute slot index of the newest filled slot *)
}

type t = {
  objectives : objective list;
  tracks : (string, objective * track) Hashtbl.t;
  lock : Mutex.t;
}

(* --- spec parsing: "analyze=50ms:99,calibrate=2s:99.9" --- *)

let parse_duration s =
  let num, unit_ =
    let n = String.length s in
    let rec split i = if i < n && (s.[i] = '.' || (s.[i] >= '0' && s.[i] <= '9')) then split (i + 1) else i in
    let i = split 0 in
    (String.sub s 0 i, String.sub s i (n - i))
  in
  match (float_of_string_opt num, String.lowercase_ascii unit_) with
  | Some v, "us" -> Some (v *. 1e-6)
  | Some v, "ms" -> Some (v *. 1e-3)
  | Some v, ("s" | "") -> Some v
  | _ -> None

let parse_objective spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "SLO %S: expected op=DURATION:PERCENT" spec)
  | Some i -> (
    let op = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    match String.index_opt rest ':' with
    | None -> Error (Printf.sprintf "SLO %S: expected DURATION:PERCENT after '='" spec)
    | Some j -> (
      let dur = String.sub rest 0 j in
      let pct = String.sub rest (j + 1) (String.length rest - j - 1) in
      match (parse_duration dur, float_of_string_opt pct) with
      | None, _ -> Error (Printf.sprintf "SLO %S: bad duration %S (use us/ms/s)" spec dur)
      | _, None -> Error (Printf.sprintf "SLO %S: bad percentile %S" spec pct)
      | Some threshold_s, Some p when p > 0.0 && p < 100.0 && threshold_s > 0.0 && op <> "" ->
        Ok { op; threshold_s; target = p /. 100.0 }
      | _ -> Error (Printf.sprintf "SLO %S: need op, duration > 0 and percent in (0,100)" spec)))

let parse_spec spec =
  let parts = String.split_on_char ',' spec |> List.filter (fun s -> s <> "") in
  if parts = [] then Error "empty SLO spec"
  else
    List.fold_left
      (fun acc part ->
        match (acc, parse_objective (String.trim part)) with
        | Error e, _ -> Error e
        | _, Error e -> Error e
        | Ok l, Ok o -> Ok (l @ [ o ]))
      (Ok []) parts

(* --- tracking --- *)

let slot_of now = int_of_float (now /. slot_s)

let create ?(now = Unix.gettimeofday ()) objectives =
  let tracks = Hashtbl.create 8 in
  let slot = slot_of now in
  List.iter
    (fun o ->
      Hashtbl.replace tracks o.op
        (o, { totals = Array.make n_slots 0; bads = Array.make n_slots 0; head = slot }))
    objectives;
  { objectives; tracks; lock = Mutex.create () }

let objectives t = t.objectives

(* Advance the ring head to [slot], zeroing every slot in between. A
   whole-ring jump (idle > 1 h) clears everything; clock steps backwards
   are clamped to the current head. *)
let advance tr slot =
  if slot > tr.head then begin
    let gap = slot - tr.head in
    if gap >= n_slots then begin
      Array.fill tr.totals 0 n_slots 0;
      Array.fill tr.bads 0 n_slots 0
    end
    else
      for s = tr.head + 1 to slot do
        let i = s mod n_slots in
        tr.totals.(i) <- 0;
        tr.bads.(i) <- 0
      done;
    tr.head <- slot
  end

let observe ?(now = Unix.gettimeofday ()) t ~op ~ok ~elapsed_s =
  match Hashtbl.find_opt t.tracks op with
  | None -> ()
  | Some (o, tr) ->
    let bad = (not ok) || elapsed_s > o.threshold_s in
    Mutex.lock t.lock;
    advance tr (slot_of now);
    let i = tr.head mod n_slots in
    tr.totals.(i) <- tr.totals.(i) + 1;
    if bad then tr.bads.(i) <- tr.bads.(i) + 1;
    Mutex.unlock t.lock

type window = { label : string; seconds : float; total : int; bad : int; burn_rate : float }
type status = { objective : objective; windows : window list }

(* burn rate = observed bad fraction / error budget: 1.0 burns the
   budget exactly at the objective's rate; >> 1 exhausts it early. *)
let burn ~target ~total ~bad =
  if total = 0 then 0.0
  else
    let budget = Float.max (1.0 -. target) 1e-9 in
    float_of_int bad /. float_of_int total /. budget

let status ?(now = Unix.gettimeofday ()) t =
  Mutex.lock t.lock;
  let out =
    List.filter_map
      (fun o ->
        match Hashtbl.find_opt t.tracks o.op with
        | None -> None
        | Some (_, tr) ->
          advance tr (slot_of now);
          let windows =
            List.map
              (fun (label, seconds) ->
                let k = min n_slots (int_of_float (seconds /. slot_s)) in
                let total = ref 0 and bad = ref 0 in
                for s = tr.head - k + 1 to tr.head do
                  if s >= 0 then begin
                    let i = s mod n_slots in
                    total := !total + tr.totals.(i);
                    bad := !bad + tr.bads.(i)
                  end
                done;
                {
                  label;
                  seconds;
                  total = !total;
                  bad = !bad;
                  burn_rate = burn ~target:o.target ~total:!total ~bad:!bad;
                })
              windows
          in
          Some { objective = o; windows })
      t.objectives
  in
  Mutex.unlock t.lock;
  out

let to_json ?now t =
  Json.List
    (List.map
       (fun st ->
         Json.Assoc
           [
             ("op", Json.String st.objective.op);
             ("threshold_ms", Json.Float (st.objective.threshold_s *. 1e3));
             ("target_pct", Json.Float (st.objective.target *. 100.0));
             ( "windows",
               Json.List
                 (List.map
                    (fun w ->
                      Json.Assoc
                        [
                          ("window", Json.String w.label);
                          ("total", Json.Int w.total);
                          ("bad", Json.Int w.bad);
                          ("burn_rate", Json.Float w.burn_rate);
                        ])
                    st.windows) );
           ])
       (status ?now t))

let registry_samples ?now t =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  List.concat_map
    (fun { objective = o; windows } ->
      {
        Registry.name = "nbti_slo_objective_ratio";
        help = "Configured SLO success-ratio target, by op.";
        labels = [ ("op", o.op) ];
        value = Registry.Gauge o.target;
      }
      :: List.concat_map
           (fun w ->
             let labels = [ ("op", o.op); ("window", w.label) ] in
             [
               {
                 Registry.name = "nbti_slo_burn_rate";
                 help = "SLO burn rate (bad fraction / error budget), by op and window.";
                 labels;
                 value = Registry.Gauge w.burn_rate;
               };
               {
                 Registry.name = "nbti_slo_window_requests";
                 help = "Requests observed in the SLO window, by op and window.";
                 labels;
                 value = Registry.Gauge (float_of_int w.total);
               };
               {
                 Registry.name = "nbti_slo_window_bad";
                 help = "Requests that missed the SLO in the window, by op and window.";
                 labels;
                 value = Registry.Gauge (float_of_int w.bad);
               };
             ])
           windows)
    (status ~now t)
