type style = Footer | Header | Footer_and_header

type result = {
  style : style;
  beta : float;
  nbti_aware : bool;
  fresh_delay : float;
  fresh_delay_with_st : float;
  aged_delay_with_st : float;
  total_degradation : float;
  internal_degradation : float;
  st_penalty_aged : float;
  st_dvth : float;
}

(* The config's RAS and temperatures, replayed as the header ST's own
   stress pattern (gate low through active, high through standby). *)
let st_schedule_of (config : Aging.Circuit_aging.config) =
  Nbti.Schedule.with_stress_duties config.Aging.Circuit_aging.schedule ~active:1.0 ~standby:0.0

let analyze config t ~node_sp ~style ~beta ?vth_st ?(nbti_aware = true) () =
  if beta <= 0.0 || beta >= 1.0 then invalid_arg "St_insertion.analyze: beta must be in (0, 1)";
  let tech = config.Aging.Circuit_aging.tech in
  let spec = St_sizing.make_spec ~tech ~beta ?vth_st () in
  (* With the block gated in standby no internal PMOS is stressed: only
     active-mode signal activity ages the circuit. *)
  let internal =
    Aging.Circuit_aging.analyze config t ~node_sp ~standby:Aging.Circuit_aging.Standby_all_relaxed ()
  in
  let fresh_delay = internal.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay in
  let internal_degradation = internal.Aging.Circuit_aging.degradation in
  let st_dvth =
    match style with
    | Footer -> 0.0
    | Header | Footer_and_header ->
      St_sizing.dvth_st config.Aging.Circuit_aging.params spec ~schedule:(st_schedule_of config)
        ~time:config.Aging.Circuit_aging.time
  in
  (* A header's V_ST drop at fixed current scales as
     1 / (V_dd - V_th - dVth); the affected share of the budget drifts by
     that factor unless the ST was pre-upsized for end of life. *)
  let drift_factor =
    let headroom = tech.Device.Tech.vdd -. spec.St_sizing.vth_st in
    if st_dvth >= headroom then invalid_arg "St_insertion.analyze: ST aged beyond cutoff";
    headroom /. (headroom -. st_dvth)
  in
  let header_share = match style with Footer -> 0.0 | Header -> 1.0 | Footer_and_header -> 0.5 in
  let penalty_fresh, penalty_aged =
    if nbti_aware then begin
      (* Sized for end of life: the aged penalty meets the budget; when
         fresh, the oversized ST drops less. *)
      let fresh = beta *. ((1.0 -. header_share) +. (header_share /. drift_factor)) in
      (fresh, beta)
    end
    else begin
      let aged = beta *. ((1.0 -. header_share) +. (header_share *. drift_factor)) in
      (beta, aged)
    end
  in
  let fresh_delay_with_st = fresh_delay *. (1.0 +. penalty_fresh) in
  let aged_delay_with_st = fresh_delay *. (1.0 +. penalty_aged) *. (1.0 +. internal_degradation) in
  {
    style;
    beta;
    nbti_aware;
    fresh_delay;
    fresh_delay_with_st;
    aged_delay_with_st;
    total_degradation = Compiled.Timing.slowdown ~fresh:fresh_delay ~aged:aged_delay_with_st;
    internal_degradation;
    st_penalty_aged = penalty_aged;
    st_dvth;
  }

let without_st config t ~node_sp =
  let analysis =
    Aging.Circuit_aging.analyze config t ~node_sp ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  analysis.Aging.Circuit_aging.degradation
