type standby_state =
  | Standby_vector of bool array
  | Standby_all_stressed
  | Standby_all_relaxed

type config = {
  params : Nbti.Rd_model.params;
  tech : Device.Tech.t;
  schedule : Nbti.Schedule.t;
  time : float;
  pbti_scale : float option;
}

let default_config ?(params = Nbti.Rd_model.default_params) ?(tech = Device.Tech.ptm_90nm)
    ?(ras = (1.0, 9.0)) ?(t_active = 400.0) ?(t_standby = 330.0)
    ?(time = Physics.Units.ten_years) ?pbti_scale () =
  {
    params;
    tech;
    schedule =
      Nbti.Schedule.active_standby ~ras ~t_active ~t_standby ~active_duty:0.5 ~standby_duty:1.0 ();
    time;
    pbti_scale;
  }

(* Per-gate standby input vectors. For the bounding states the gate-level
   vector is irrelevant (duties are forced), so any vector works. *)
let standby_gate_inputs (t : Circuit.Netlist.t) ~standby =
  match standby with
  | Standby_vector v ->
    let values = Logic.Eval.eval t ~inputs:v in
    fun fanin -> Array.map (fun f -> values.(f)) fanin
  | Standby_all_stressed | Standby_all_relaxed -> fun fanin -> Array.map (fun _ -> false) fanin

let duty_table ?(polarity = `Pmos) (t : Circuit.Netlist.t) ~node_sp ~standby =
  let gate_inputs = standby_gate_inputs t ~standby in
  let worst_stage =
    match polarity with
    | `Pmos -> Cell.Cell_nbti.worst_stage_duties
    | `Nmos -> Cell.Cell_nbti.worst_stage_duties_nmos
  in
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
            let active, from_vector = worst_stage cell ~sp ~standby_vector ~stage in
            let standby_duty =
              match standby with
              | Standby_vector _ -> from_vector
              | Standby_all_stressed -> bound_stressed
              | Standby_all_relaxed -> bound_relaxed
            in
            (active, standby_duty)))
    t.Circuit.Netlist.nodes

(* The per-stage R-D model evaluation (schedule -> c_eq -> dVth for every
   gate stage) is the aging chain's analytical core; it gets its own span
   so traces attribute time to it separately from the STA passes. *)
let stage_dvth_general config ~cond ~scale ~duties =
  let table =
    Obs.Trace.with_span ~cat:"aging"
      ~args:[ ("gates", Obs.Fields.Int (Array.length duties)) ]
      "aging.dvth_table"
    @@ fun () ->
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

type analysis = {
  fresh : Sta.Timing.result;
  aged : Sta.Timing.result;
  degradation : float;
  max_dvth : float;
}

let nmos_cond config =
  { Nbti.Vth_shift.vgs = config.tech.Device.Tech.vdd; vth0 = config.tech.Device.Tech.vth_n }

(* --- Compiled backend ---

   The dvth table + two STA passes over [Compiled]. A standby state only
   decides, per gate stage, which of two stored threshold shifts applies
   ([Compiled.Duty]): the tables are memoized on everything they depend
   on, so analysing a new standby vector is one logic simulation, a
   per-stage pick and the timing passes on the flat arena. Results are
   bit-identical to the boxed reference the tests keep ([duty_table],
   one R-D evaluation per gate stage, boxed STA): each stored shift is
   the boxed [Vth_shift.dvth] expression on the same duty pair, and the
   compiled STA preserves the boxed float association. *)

let fp_config buf config =
  Compiled.Memo.Fp.params buf config.params;
  Compiled.Memo.Fp.tech buf config.tech;
  Compiled.Memo.Fp.schedule buf config.schedule;
  Compiled.Memo.Fp.f buf config.time

let fp_standby buf = function
  | Standby_vector v ->
    Compiled.Memo.Fp.s buf "v";
    Compiled.Memo.Fp.bools buf v
  | Standby_all_stressed -> Compiled.Memo.Fp.s buf "s"
  | Standby_all_relaxed -> Compiled.Memo.Fp.s buf "r"

let shape_memo : Compiled.Aging.t Compiled.Memo.t = Compiled.Memo.create ~capacity:16 ()

let pmos_shape config t (a : Compiled.Arena.t) ~node_sp ~standby =
  let buf = Buffer.create 512 in
  Compiled.Memo.Fp.s buf a.Compiled.Arena.digest;
  Compiled.Memo.Fp.s buf "pmos";
  fp_config buf config;
  Compiled.Memo.Fp.floats buf node_sp;
  fp_standby buf standby;
  Compiled.Memo.find_or_add shape_memo (Compiled.Memo.Fp.digest buf) (fun () ->
      Compiled.Aging.build a ~params:config.params ~tech:config.tech
        ~schedule:config.schedule ~time:config.time
        ~cond:(Nbti.Vth_shift.nominal_pmos config.tech) ~scale:1.0
        ~duties:(duty_table t ~node_sp ~standby))

let duties_shape config (a : Compiled.Arena.t) ~duties =
  let buf = Buffer.create 512 in
  Compiled.Memo.Fp.s buf a.Compiled.Arena.digest;
  Compiled.Memo.Fp.s buf "duties";
  fp_config buf config;
  Array.iter
    (fun row ->
      Compiled.Memo.Fp.i buf (Array.length row);
      Array.iter
        (fun (act, stb) ->
          Compiled.Memo.Fp.f buf act;
          Compiled.Memo.Fp.f buf stb)
        row)
    duties;
  Compiled.Memo.find_or_add shape_memo (Compiled.Memo.Fp.digest buf) (fun () ->
      Compiled.Aging.build a ~params:config.params ~tech:config.tech
        ~schedule:config.schedule ~time:config.time
        ~cond:(Nbti.Vth_shift.nominal_pmos config.tech) ~scale:1.0 ~duties)

(* Duty tables are keyed on the arena digest and the signal
   probabilities' bits (plus the polarity); shift pairs also on the
   aging config and the polarity's scale. The probability digest is
   computed once per analysis and shared by both polarities. *)
let duty_memo : Compiled.Duty.t Compiled.Memo.t = Compiled.Memo.create ~capacity:16 ()
let shifts_memo : Compiled.Duty.shifts Compiled.Memo.t = Compiled.Memo.create ~capacity:16 ()

let sp_key (a : Compiled.Arena.t) ~node_sp =
  let buf = Buffer.create 512 in
  Compiled.Memo.Fp.s buf a.Compiled.Arena.digest;
  Compiled.Memo.Fp.floats buf node_sp;
  Compiled.Memo.Fp.digest buf

let shifts_of config (a : Compiled.Arena.t) ~node_sp ~sp_key polarity =
  let cond, scale =
    match (polarity, config.pbti_scale) with
    | `Pmos, _ -> (Nbti.Vth_shift.nominal_pmos config.tech, 1.0)
    | `Nmos, Some scale -> (nmos_cond config, scale)
    | `Nmos, None -> invalid_arg "Circuit_aging: NMOS shifts need a pbti_scale"
  in
  let duty_key = sp_key ^ match polarity with `Pmos -> ":pmos" | `Nmos -> ":nmos" in
  let buf = Buffer.create 512 in
  Compiled.Memo.Fp.s buf duty_key;
  Compiled.Memo.Fp.f buf scale;
  fp_config buf config;
  Compiled.Memo.find_or_add shifts_memo (Compiled.Memo.Fp.digest buf) (fun () ->
      Obs.Trace.with_span ~cat:"aging" "aging.duty_tables" @@ fun () ->
      let duty =
        Compiled.Memo.find_or_add duty_memo duty_key (fun () ->
            Compiled.Duty.build a ~polarity ~node_sp)
      in
      Compiled.Duty.shifts duty
        {
          Compiled.Duty.params = config.params;
          tech = config.tech;
          schedule = config.schedule;
          time = config.time;
          cond;
          scale;
        })

let shifts config a ~node_sp = shifts_of config a ~node_sp ~sp_key:(sp_key a ~node_sp) `Pmos

let analyze_tables config (a : Compiled.Arena.t) ?po_load ~dvth ?dvth_n ~max_dvth () =
  let temp_k = config.schedule.Nbti.Schedule.t_ref in
  let tm = Compiled.Timing.get a ~tech:config.tech ~temp_k ?po_load () in
  let fresh =
    Obs.Trace.with_span ~cat:"sta" "sta.fresh" @@ fun () -> Compiled.Timing.fresh_result tm
  in
  let aged =
    Obs.Trace.with_span ~cat:"sta" "sta.aged" @@ fun () ->
    Compiled.Timing.aged_result tm ~dvth ?dvth_n ()
  in
  { fresh; aged; degradation = Sta.Timing.degradation ~fresh ~aged; max_dvth }

let analyze_arena config (a : Compiled.Arena.t) ?po_load ?scratch ~node_sp ~standby () =
  let sp_key = sp_key a ~node_sp in
  let shifts polarity = shifts_of config a ~node_sp ~sp_key polarity in
  (* A vector is simulated once and picks per stage; the bounding states
     are one stored table each, mirrored across polarity as in
     [duty_table]. *)
  let pick =
    match standby with
    | Standby_vector v ->
      if Array.length v <> Array.length a.Compiled.Arena.pis then
        invalid_arg "Circuit_aging.analyze: standby vector length";
      let s = match scratch with Some s -> s | None -> Compiled.Logic.leak_scratch a in
      Compiled.Arena.eval_bool a ~inputs:v ~vals:s.Compiled.Logic.vals ~idxs:s.Compiled.Logic.idxs;
      fun polarity ->
        let dvth = Array.make a.Compiled.Arena.n_stages 0.0 in
        let max_dvth = Compiled.Duty.pick (shifts polarity) ~idxs:s.Compiled.Logic.idxs ~dvth in
        (dvth, max_dvth)
    | Standby_all_stressed ->
      fun polarity -> Compiled.Duty.bound (shifts polarity) ~stressed:(polarity = `Pmos)
    | Standby_all_relaxed ->
      fun polarity -> Compiled.Duty.bound (shifts polarity) ~stressed:(polarity = `Nmos)
  in
  let dvth, max_dvth = pick `Pmos in
  let dvth_n = Option.map (fun _ -> fst (pick `Nmos)) config.pbti_scale in
  analyze_tables config a ?po_load ~dvth ?dvth_n ~max_dvth ()

let analyze config t ?po_load ~node_sp ~standby () =
  analyze_arena config (Compiled.Arena.get t) ?po_load ~node_sp ~standby ()

let analyze_with_duties config t ?po_load ~duties () =
  let a = Compiled.Arena.get t in
  let shape = duties_shape config a ~duties in
  analyze_tables config a ?po_load ~dvth:shape.Compiled.Aging.dvth
    ~max_dvth:shape.Compiled.Aging.max_dvth ()

let worst_case_config config =
  { config with schedule = Nbti.Schedule.worst_case_temperature config.schedule }
