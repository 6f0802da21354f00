type potential = {
  fresh_delay : float;
  worst_degradation : float;
  best_degradation : float;
  potential : float;
}

let potential config t ~node_sp =
  let worst =
    Aging.Circuit_aging.analyze config t ~node_sp ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  let best =
    Aging.Circuit_aging.analyze config t ~node_sp ~standby:Aging.Circuit_aging.Standby_all_relaxed ()
  in
  let wd = worst.Aging.Circuit_aging.degradation and bd = best.Aging.Circuit_aging.degradation in
  {
    fresh_delay = worst.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay;
    worst_degradation = wd;
    best_degradation = bd;
    potential = (if wd > 0.0 then (wd -. bd) /. wd else 0.0);
  }

let with_standby_temperature (config : Aging.Circuit_aging.config) temp =
  let sched = config.Aging.Circuit_aging.schedule in
  let t_ref = sched.Nbti.Schedule.t_ref in
  let phases =
    List.map
      (fun (p : Nbti.Schedule.phase) ->
        match p.Nbti.Schedule.mode with
        | Nbti.Schedule.Standby -> { p with Nbti.Schedule.temp_k = temp }
        | Nbti.Schedule.Active -> p)
      sched.Nbti.Schedule.phases
  in
  { config with Aging.Circuit_aging.schedule = Nbti.Schedule.make ~t_ref phases }

let sweep_standby_temperature config t ~node_sp ~temps =
  Array.map (fun temp -> (temp, potential (with_standby_temperature config temp) t ~node_sp)) temps
