(* The boxed aging analysis: the boxed duty walk
   ([Aging.Circuit_aging.duty_table]), one R-D evaluation per gate stage
   and two boxed STA passes. [Aging.Circuit_aging.analyze], which reads
   precomputed duty tables and times on the compiled arena, must match
   it bit for bit. *)

open Aging.Circuit_aging

(* Fresh and aged boxed STA at the active temperature for explicit
   per-stage threshold shifts, with the max-dvth fold in node/stage
   order. *)
let analyze_dvth config t ?po_load ?stage_dvth_n ~stage_dvth () =
  let temp_k = config.schedule.Nbti.Schedule.t_ref in
  let fresh = Timing.fresh config.tech t ?po_load ~temp_k () in
  let aged = Timing.analyze config.tech t ?po_load ?stage_dvth_n ~temp_k ~stage_dvth () in
  let max_dvth = ref 0.0 in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { cell; _ } ->
        for stage = 0 to Array.length cell.Cell.Stdcell.stages - 1 do
          max_dvth := Float.max !max_dvth (stage_dvth ~gate:i ~stage)
        done)
    t.Circuit.Netlist.nodes;
  { fresh; aged; degradation = Sta.Timing.degradation ~fresh ~aged; max_dvth = !max_dvth }

let analyze config t ?po_load ~node_sp ~standby () =
  let stage_dvth_n =
    Option.map
      (fun scale ->
        let duties = duty_table ~polarity:`Nmos t ~node_sp ~standby in
        let cond =
          { Nbti.Vth_shift.vgs = config.tech.Device.Tech.vdd; vth0 = config.tech.Device.Tech.vth_n }
        in
        let table =
          Array.map
            (Array.map (fun (active, standby) ->
                 let sched = Nbti.Schedule.with_stress_duties config.schedule ~active ~standby in
                 scale
                 *. Nbti.Vth_shift.dvth config.params config.tech cond ~schedule:sched
                      ~time:config.time))
            duties
        in
        fun ~gate ~stage -> table.(gate).(stage))
      config.pbti_scale
  in
  analyze_dvth config t ?po_load ?stage_dvth_n
    ~stage_dvth:(stage_dvth_map config t ~node_sp ~standby) ()
