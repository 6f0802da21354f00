type config = {
  aging : Aging.Circuit_aging.config;
  vth_offset : float;
  timing_tolerance : float;
}

let default_config ?(vth_offset = 0.08) ?(timing_tolerance = 0.0) aging =
  if vth_offset <= 0.0 then invalid_arg "Dual_vth: offset must be positive";
  if timing_tolerance < 0.0 then invalid_arg "Dual_vth: negative tolerance";
  { aging; vth_offset; timing_tolerance }

let hvt_tech config =
  let tech = config.aging.Aging.Circuit_aging.tech in
  {
    tech with
    Device.Tech.name = tech.Device.Tech.name ^ "-hvt";
    vth_p = tech.Device.Tech.vth_p +. config.vth_offset;
    vth_n = tech.Device.Tech.vth_n +. config.vth_offset;
  }

let hvt_delay_factor config =
  let tech = config.aging.Aging.Circuit_aging.tech in
  let temp_k = config.aging.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
  let vth_l = Device.Tech.vth_at tech `P ~temp_k in
  let vth_h = vth_l +. config.vth_offset in
  let vdd = tech.Device.Tech.vdd in
  Float.pow ((vdd -. vth_l) /. (vdd -. vth_h)) tech.Device.Tech.alpha

type result = {
  assignment : bool array;
  n_hvt : int;
  n_gates : int;
  fresh_before : float;
  fresh_after : float;
  degradation_before : float;
  degradation_after : float;
  active_leakage_before : float;
  active_leakage_after : float;
  standby_leakage_before : float;
  standby_leakage_after : float;
  iterations : int;
}

(* Per-gate (expected-active, worst-vector) leakage under one technology,
   with LUTs cached per cell. *)
let gate_leakages tech (t : Circuit.Netlist.t) ~node_sp =
  let luts = Hashtbl.create 16 in
  let lut cell =
    match Hashtbl.find_opt luts cell.Cell.Stdcell.name with
    | Some l -> l
    | None ->
      let l = Cell.Cell_leakage.build_lut tech cell ~temp_k:400.0 in
      Hashtbl.add luts cell.Cell.Stdcell.name l;
      l
  in
  Array.map
    (fun node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> (0.0, 0.0)
      | Circuit.Netlist.Gate { cell; fanin; _ } ->
        let l = lut cell in
        let sp = Array.map (fun f -> node_sp.(f)) fanin in
        let _, (_, worst) = Cell.Cell_leakage.extremes l in
        (Cell.Cell_leakage.expected l ~sp, worst))
    t.Circuit.Netlist.nodes

let optimize config (t : Circuit.Netlist.t) ~node_sp ~standby ?(max_iterations = 10) () =
  let aging = config.aging in
  let tech = aging.Aging.Circuit_aging.tech in
  let temp_k = aging.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
  let factor = hvt_delay_factor config in
  let n = Circuit.Netlist.n_nodes t in
  let hvt = Array.make n false in
  (* Per-gate delay scale of the current assignment, kept in step with
     [hvt] by [assign]. *)
  let scale = Array.make n 1.0 in
  let assign i b =
    hvt.(i) <- b;
    scale.(i) <- (if b then factor else 1.0)
  in
  let a = Compiled.Arena.get t in
  let tm = Compiled.Timing.get a ~tech ~temp_k () in
  let fresh_sta () = Compiled.Timing.fresh_result ~scale tm in
  let fresh0 = fresh_sta () in
  let target = fresh0.Compiled.Timing.max_delay *. (1.0 +. config.timing_tolerance) in
  (* Slack-driven sweeps: batch-assign where slack safely covers the
     delay loss (shared-path interaction absorbed by the 3x factor),
     verify, and single-step the borderline gates. *)
  let iterations = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iterations < max_iterations do
    incr iterations;
    let timing = fresh_sta () in
    let slack = Compiled.Slack.compute t ~timing ~target () in
    let flipped = ref [] in
    Array.iteri
      (fun i node ->
        match node with
        | Circuit.Netlist.Primary_input _ -> ()
        | Circuit.Netlist.Gate _ ->
          if
            (not hvt.(i))
            && slack.Compiled.Slack.slack.(i)
               >= 3.0 *. (factor -. 1.0) *. timing.Compiled.Timing.gate_delay.(i)
          then begin
            assign i true;
            flipped := i :: !flipped
          end)
      t.Circuit.Netlist.nodes;
    if !flipped = [] then continue_ := false
    else if (fresh_sta ()).Compiled.Timing.max_delay > target then begin
      (* Over-committed: revert everything from this sweep, then retry one
         by one in the order of decreasing slack. *)
      List.iter (fun i -> assign i false) !flipped;
      let by_slack =
        List.sort
          (fun a b -> compare slack.Compiled.Slack.slack.(b) slack.Compiled.Slack.slack.(a))
          !flipped
      in
      List.iter
        (fun i ->
          assign i true;
          if (fresh_sta ()).Compiled.Timing.max_delay > target then assign i false)
        by_slack;
      continue_ := false
    end
  done;
  let fresh_after = fresh_sta () in
  (* Aging with per-gate V_th0: HVT gates stress at the raised threshold
     (smaller oxide field, eq. 23). *)
  let duties = Aging.Circuit_aging.duty_table t ~node_sp ~standby in
  let stage_dvth ~gate ~stage =
    let active, standby_duty = duties.(gate).(stage) in
    let vth0 =
      tech.Device.Tech.vth_p +. if hvt.(gate) then config.vth_offset else 0.0
    in
    let cond = { Nbti.Vth_shift.vgs = tech.Device.Tech.vdd; vth0 } in
    let sched =
      Nbti.Schedule.with_stress_duties aging.Aging.Circuit_aging.schedule ~active
        ~standby:standby_duty
    in
    Nbti.Vth_shift.dvth aging.Aging.Circuit_aging.params tech cond ~schedule:sched
      ~time:aging.Aging.Circuit_aging.time
  in
  let aged_after =
    Compiled.Timing.aged_result tm ~scale ~dvth:(Compiled.Arena.stage_values a stage_dvth) ()
  in
  let before = Aging.Circuit_aging.analyze_with_duties aging t ~duties () in
  (* Leakage: per-gate blend of the LVT/HVT tables. *)
  let lvt = gate_leakages tech t ~node_sp in
  let hvt_tabs = gate_leakages (hvt_tech config) t ~node_sp in
  let blend pick =
    let total = ref 0.0 in
    Array.iteri
      (fun i node ->
        match node with
        | Circuit.Netlist.Primary_input _ -> ()
        | Circuit.Netlist.Gate _ ->
          total := !total +. pick (if hvt.(i) then hvt_tabs.(i) else lvt.(i)))
      t.Circuit.Netlist.nodes;
    !total
  in
  let sum_lvt pick =
    let total = ref 0.0 in
    Array.iteri
      (fun i node ->
        match node with
        | Circuit.Netlist.Primary_input _ -> ()
        | Circuit.Netlist.Gate _ -> total := !total +. pick lvt.(i))
      t.Circuit.Netlist.nodes;
    !total
  in
  {
    assignment = hvt;
    n_hvt = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 hvt;
    n_gates = Circuit.Netlist.n_gates t;
    fresh_before = fresh0.Compiled.Timing.max_delay;
    fresh_after = fresh_after.Compiled.Timing.max_delay;
    degradation_before = before.Aging.Circuit_aging.degradation;
    degradation_after = Compiled.Timing.degradation ~fresh:fresh_after ~aged:aged_after;
    active_leakage_before = sum_lvt fst;
    active_leakage_after = blend fst;
    standby_leakage_before = sum_lvt snd;
    standby_leakage_after = blend snd;
    iterations = !iterations;
  }
