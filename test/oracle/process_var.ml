(* The boxed process-variation study: per sample, one gaussian V_th0
   offset per node, a boxed R-D evaluation per gate stage at the offset
   threshold, and two boxed STA passes with the offset's delay scale.
   [Variation.Process_var.run] must match it at any domain count. *)

open Variation.Process_var

let run ?pool config t ~node_sp ~standby ~rng =
  let aging = config.aging in
  let tech = aging.Aging.Circuit_aging.tech in
  let temp_k = aging.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
  let duties = Circuit_aging.duty_table t ~node_sp ~standby in
  let n_nodes = Circuit.Netlist.n_nodes t in
  let vth_nom = Device.Tech.vth_at tech `P ~temp_k in
  let overdrive_nom = tech.Device.Tech.vdd -. vth_nom in
  let alpha = tech.Device.Tech.alpha in
  let one_sample rng =
    let offsets = Array.make n_nodes 0.0 in
    for i = 0 to n_nodes - 1 do
      offsets.(i) <- Physics.Rng.gaussian rng ~mean:0.0 ~sigma:config.sigma_vth
    done;
    let gate_scale i =
      let od = tech.Device.Tech.vdd -. (vth_nom +. offsets.(i)) in
      Float.pow (overdrive_nom /. od) alpha
    in
    let stage_dvth ~gate ~stage =
      let active, standby_duty = duties.(gate).(stage) in
      let vth0 = tech.Device.Tech.vth_p +. offsets.(gate) in
      let cond = { Nbti.Vth_shift.vgs = tech.Device.Tech.vdd; vth0 } in
      let sched =
        Nbti.Schedule.with_stress_duties aging.Aging.Circuit_aging.schedule ~active
          ~standby:standby_duty
      in
      Nbti.Vth_shift.dvth aging.Aging.Circuit_aging.params tech cond ~schedule:sched
        ~time:aging.Aging.Circuit_aging.time
    in
    let fresh = Timing.analyze tech t ~gate_scale ~temp_k ~stage_dvth:Compiled.Timing.no_aging () in
    let aged = Timing.analyze tech t ~gate_scale ~temp_k ~stage_dvth () in
    { fresh_delay = fresh.Compiled.Timing.max_delay; aged_delay = aged.Compiled.Timing.max_delay }
  in
  let p = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let samples = Parallel.Pool.init_rng p ~rng config.n_samples (fun rng _ -> one_sample rng) in
  let fresh = Physics.Stats.summarize (Array.map (fun s -> s.fresh_delay) samples) in
  let aged = Physics.Stats.summarize (Array.map (fun s -> s.aged_delay) samples) in
  let band (s : Physics.Stats.summary) =
    (s.Physics.Stats.mean -. (3.0 *. s.Physics.Stats.stddev),
     s.Physics.Stats.mean +. (3.0 *. s.Physics.Stats.stddev))
  in
  { samples; fresh; aged; fresh_3sigma = band fresh; aged_3sigma = band aged }
