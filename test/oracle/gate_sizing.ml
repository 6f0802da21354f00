(* NBTI-aware gate sizing with a full boxed STA of every materialized
   netlist per iteration. [Mitigation.Gate_sizing.optimize], which
   re-times only the edited cones of one resident session, must follow
   the same trajectory bit for bit. *)

open Mitigation.Gate_sizing

let optimize config (t : Circuit.Netlist.t) ~node_sp ~standby ?(margin = 0.01) ?(step = 1.2)
    ?(max_drive = 4.0) ?(max_iterations = 40) () =
  let tech = config.Aging.Circuit_aging.tech in
  let temp_k = config.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
  let stage_dvth = Circuit_aging.stage_dvth_map config t ~node_sp ~standby in
  let aged_sta net = Timing.analyze tech net ~temp_k ~stage_dvth () in
  let fresh0 = Timing.fresh tech t ~temp_k () in
  let aged0 = aged_sta t in
  let target = fresh0.Compiled.Timing.max_delay *. (1.0 +. margin) in
  let drives = Array.make (Circuit.Netlist.n_nodes t) 1.0 in
  let rec loop net aged iterations =
    if aged.Compiled.Timing.max_delay <= target || iterations >= max_iterations then
      (net, aged, iterations)
    else begin
      let grown =
        grow_path t ~drives ~critical_path:aged.Compiled.Timing.critical_path ~step ~max_drive
      in
      if grown = [] then (net, aged, iterations)
      else begin
        let net' = materialize t ~drives in
        loop net' (aged_sta net') (iterations + 1)
      end
    end
  in
  let sized, aged_final, iterations = loop t aged0 0 in
  let fresh_final = Timing.fresh tech sized ~temp_k () in
  {
    drives;
    sized;
    fresh_before = fresh0.Compiled.Timing.max_delay;
    aged_before = aged0.Compiled.Timing.max_delay;
    fresh_after = fresh_final.Compiled.Timing.max_delay;
    aged_after = aged_final.Compiled.Timing.max_delay;
    target;
    met = aged_final.Compiled.Timing.max_delay <= target;
    area_overhead = (area sized -. area t) /. area t;
    iterations;
  }
