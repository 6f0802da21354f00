(* The boxed aging analysis: the boxed duty walk, one R-D evaluation per
   gate stage and two boxed STA passes. [Aging.Circuit_aging.analyze],
   which reads precomputed duty tables and times on the compiled arena,
   must match it bit for bit, and [Aging.Circuit_aging.duty_table], which
   reads the pairs back out of those tables, must match [duty_table]
   here. *)

open Aging.Circuit_aging

(* Per-gate standby input vectors. For the bounding states the gate-level
   vector is irrelevant (duties are forced), so any vector works. *)
let standby_gate_inputs (t : Circuit.Netlist.t) ~standby =
  match standby with
  | Standby_vector v ->
    let values = Logic.Eval.eval t ~inputs:v in
    fun fanin -> Array.map (fun f -> values.(f)) fanin
  | Standby_all_stressed | Standby_all_relaxed -> fun fanin -> Array.map (fun _ -> false) fanin

(* Per node, per stage: the worst device's (active, standby) duty pair,
   from a walk of each gate's transistor networks under its fanin
   probabilities and standby inputs. *)
let duty_table ?(polarity = `Pmos) (t : Circuit.Netlist.t) ~node_sp ~standby =
  let gate_inputs = standby_gate_inputs t ~standby in
  (* The bounding states mirror across polarity: all nodes 0 stresses
     every PMOS and relaxes every NMOS, all nodes 1 the converse. *)
  let bound_stressed, bound_relaxed =
    match polarity with `Pmos -> (1.0, 0.0) | `Nmos -> (0.0, 1.0)
  in
  Array.map
    (fun node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> [||]
      | Circuit.Netlist.Gate { cell; fanin; _ } ->
        let sp = Array.map (fun f -> node_sp.(f)) fanin in
        let standby_vector = gate_inputs fanin in
        Array.init (Array.length cell.Cell.Stdcell.stages) (fun stage ->
            let active, from_vector =
              Cell.Cell_nbti.worst_stage_duties ~polarity cell ~sp ~standby_vector ~stage
            in
            let standby_duty =
              match standby with
              | Standby_vector _ -> from_vector
              | Standby_all_stressed -> bound_stressed
              | Standby_all_relaxed -> bound_relaxed
            in
            (active, standby_duty)))
    t.Circuit.Netlist.nodes

(* One R-D evaluation per gate stage of [duties]. *)
let stage_dvth_general config ~cond ~scale ~duties =
  let table =
    Array.map
      (Array.map (fun (active, standby) ->
           let sched = Nbti.Schedule.with_stress_duties config.schedule ~active ~standby in
           scale *. Nbti.Vth_shift.dvth config.params config.tech cond ~schedule:sched ~time:config.time))
      duties
  in
  fun ~gate ~stage -> table.(gate).(stage)

let stage_dvth_of_duties config ~duties =
  stage_dvth_general config ~cond:(Nbti.Vth_shift.nominal_pmos config.tech) ~scale:1.0 ~duties

let stage_dvth_map config t ~node_sp ~standby =
  stage_dvth_of_duties config ~duties:(duty_table t ~node_sp ~standby)

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
  { fresh; aged; degradation = Compiled.Timing.degradation ~fresh ~aged; max_dvth = !max_dvth }

let analyze config t ?po_load ~node_sp ~standby () =
  let stage_dvth_n =
    Option.map
      (fun scale ->
        stage_dvth_general config
          ~cond:{ Nbti.Vth_shift.vgs = config.tech.Device.Tech.vdd; vth0 = config.tech.Device.Tech.vth_n }
          ~scale ~duties:(duty_table ~polarity:`Nmos t ~node_sp ~standby))
      config.pbti_scale
  in
  analyze_dvth config t ?po_load ?stage_dvth_n
    ~stage_dvth:(stage_dvth_map config t ~node_sp ~standby) ()
