type gaussian = { mean : float; var : float }

let sigma g = Float.sqrt (Float.max 0.0 g.var)

let std_pdf x = Float.exp (-0.5 *. x *. x) /. Float.sqrt (2.0 *. Float.pi)
let std_cdf x = Physics.Stats.normal_cdf ~mean:0.0 ~sigma:1.0 x

let clark_max a b =
  let theta2 = a.var +. b.var in
  if theta2 <= 1e-60 then { mean = Float.max a.mean b.mean; var = Float.max a.var b.var }
  else begin
    let theta = Float.sqrt theta2 in
    let alpha = (a.mean -. b.mean) /. theta in
    let phi = std_pdf alpha and cdf = std_cdf alpha in
    let cdf' = 1.0 -. cdf in
    let m = (a.mean *. cdf) +. (b.mean *. cdf') +. (theta *. phi) in
    let m2 =
      (((a.mean *. a.mean) +. a.var) *. cdf)
      +. (((b.mean *. b.mean) +. b.var) *. cdf')
      +. ((a.mean +. b.mean) *. theta *. phi)
    in
    { mean = m; var = Float.max 0.0 (m2 -. (m *. m)) }
  end

type result = { arrival : gaussian array; circuit : gaussian }

(* Gate delay distribution over the per-gate V_th0 spread: central
   differences of the full delay(V_th0) curve - fresh speedup/slowdown
   and, when aged, the compensating extra degradation of fast samples. *)
let gate_gaussians (config : Aging.Circuit_aging.config) (t : Circuit.Netlist.t) ~sigma_vth
    ~node_sp ~standby ~aged =
  let tech = config.Aging.Circuit_aging.tech in
  let temp_k = config.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
  let fresh =
    Compiled.Timing.fresh_result (Compiled.Timing.get (Compiled.Arena.get t) ~tech ~temp_k ())
  in
  let duties = Aging.Circuit_aging.duty_table t ~node_sp ~standby in
  let vth_nom = Device.Tech.vth_at tech `P ~temp_k in
  let od_nom = tech.Device.Tech.vdd -. vth_nom in
  let alpha = tech.Device.Tech.alpha in
  let delay_of gate offset =
    let base = fresh.Compiled.Timing.gate_delay.(gate) in
    let od = od_nom -. offset in
    let scale = Float.pow (od_nom /. od) alpha in
    if not aged then base *. scale
    else begin
      let vth0 = tech.Device.Tech.vth_p +. offset in
      let cond = { Nbti.Vth_shift.vgs = tech.Device.Tech.vdd; vth0 } in
      let worst =
        Array.fold_left
          (fun acc (active, standby_duty) ->
            let sched =
              Nbti.Schedule.with_stress_duties config.Aging.Circuit_aging.schedule ~active
                ~standby:standby_duty
            in
            Float.max acc
              (Nbti.Vth_shift.dvth config.Aging.Circuit_aging.params tech cond ~schedule:sched
                 ~time:config.Aging.Circuit_aging.time))
          0.0 duties.(gate)
      in
      base *. scale *. (1.0 +. (alpha *. worst /. od))
    end
  in
  let h = 0.005 in
  Array.mapi
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> { mean = 0.0; var = 0.0 }
      | Circuit.Netlist.Gate _ ->
        let mean = delay_of i 0.0 in
        let slope = (delay_of i h -. delay_of i (-.h)) /. (2.0 *. h) in
        let s = slope *. sigma_vth in
        { mean; var = s *. s })
    t.Circuit.Netlist.nodes

let analyze config (t : Circuit.Netlist.t) ~sigma_vth ~node_sp ~standby ~aged =
  let gates = gate_gaussians config t ~sigma_vth ~node_sp ~standby ~aged in
  let n = Circuit.Netlist.n_nodes t in
  let arrival = Array.make n { mean = 0.0; var = 0.0 } in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { fanin; _ } ->
        let input =
          Array.fold_left
            (fun acc f -> clark_max acc arrival.(f))
            { mean = 0.0; var = 0.0 } fanin
        in
        arrival.(i) <- { mean = input.mean +. gates.(i).mean; var = input.var +. gates.(i).var })
    t.Circuit.Netlist.nodes;
  let circuit =
    Array.fold_left
      (fun acc o -> clark_max acc arrival.(o))
      { mean = 0.0; var = 0.0 } t.Circuit.Netlist.outputs
  in
  { arrival; circuit }

let parametric_yield g ~target =
  let s = sigma g in
  if s <= 0.0 then if g.mean <= target then 1.0 else 0.0
  else Physics.Stats.normal_cdf ~mean:g.mean ~sigma:s target

let compare_mc ~fresh ~aged ~(mc : Process_var.study) =
  let rel a b = (a -. b) /. b in
  let f = mc.Process_var.fresh and a = mc.Process_var.aged in
  ( ( rel fresh.circuit.mean f.Physics.Stats.mean,
      rel (sigma fresh.circuit) f.Physics.Stats.stddev ),
    (rel aged.circuit.mean a.Physics.Stats.mean, rel (sigma aged.circuit) a.Physics.Stats.stddev) )
