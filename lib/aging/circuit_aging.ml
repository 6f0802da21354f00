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

type analysis = {
  fresh : Compiled.Timing.result;
  aged : Compiled.Timing.result;
  degradation : float;
  max_dvth : float;
}

(* --- Compiled tables ---

   The duty pairs, threshold shifts and the two STA passes all come
   from [Compiled]. With the signal probabilities fixed, a gate stage's
   duty pair is (active, standby) with [standby] 1.0 or 0.0, so each
   flat stage takes one of two stored shifts ([Compiled.Duty]), and a
   standby state only decides which: the tables are memoized on
   everything they depend on, so analysing a new standby vector is one
   logic simulation, a per-stage pick and the timing passes on the flat
   arena. The test-only oracle keeps the boxed walk of every gate's
   transistor networks these tables replace, and one R-D evaluation per
   gate stage; [analyze] must match it bit for bit. *)

let fp_config buf config =
  let k = Compiled.Memo.Fp.sink buf in
  Compiled.Memo.Fp.params k config.params;
  Compiled.Memo.Fp.tech k config.tech;
  Compiled.Memo.Fp.schedule k config.schedule;
  Compiled.Memo.Fp.f buf config.time

let fp_standby buf = function
  | Standby_vector v ->
    Compiled.Memo.Fp.s buf "v";
    Compiled.Memo.Fp.bools buf v
  | Standby_all_stressed -> Compiled.Memo.Fp.s buf "s"
  | Standby_all_relaxed -> Compiled.Memo.Fp.s buf "r"

(* Duty tables are keyed on the arena digest and the signal
   probabilities' bits (plus the polarity); shift pairs also on the
   aging config and the polarity's scale. The probability digest is
   computed once per analysis and shared by both polarities. *)
let duty_memo : Compiled.Duty.t Parallel.Cache.t = Parallel.Cache.create ~capacity:16 ()
let shifts_memo : Compiled.Duty.shifts Parallel.Cache.t = Parallel.Cache.create ~capacity:16 ()

let sp_key (a : Compiled.Arena.t) ~node_sp =
  let buf = Buffer.create 512 in
  Compiled.Memo.Fp.s buf a.Compiled.Arena.digest;
  Compiled.Memo.Fp.floats buf node_sp;
  Compiled.Memo.Fp.digest buf

let polarity_key sp_key = function `Pmos -> sp_key ^ ":pmos" | `Nmos -> sp_key ^ ":nmos"

let duty_of (a : Compiled.Arena.t) ~node_sp ~sp_key polarity =
  fst
    (Parallel.Cache.find_or_add duty_memo (polarity_key sp_key polarity) (fun () ->
         Compiled.Duty.build a ~polarity ~node_sp))

(* The R-D model one polarity is evaluated under. *)
let model config polarity =
  let cond, scale =
    match (polarity, config.pbti_scale) with
    | `Pmos, _ -> (Nbti.Vth_shift.nominal_pmos config.tech, 1.0)
    | `Nmos, Some scale ->
      ({ Nbti.Vth_shift.vgs = config.tech.Device.Tech.vdd; vth0 = config.tech.Device.Tech.vth_n }, scale)
    | `Nmos, None -> invalid_arg "Circuit_aging: NMOS shifts need a pbti_scale"
  in
  {
    Compiled.Duty.params = config.params;
    tech = config.tech;
    schedule = config.schedule;
    time = config.time;
    cond;
    scale;
  }

let shifts_of config (a : Compiled.Arena.t) ~node_sp ~sp_key polarity =
  let m = model config polarity in
  let buf = Buffer.create 512 in
  Compiled.Memo.Fp.s buf (polarity_key sp_key polarity);
  Compiled.Memo.Fp.f buf m.Compiled.Duty.scale;
  fp_config buf config;
  fst
    (Parallel.Cache.find_or_add shifts_memo (Compiled.Memo.Fp.digest buf) (fun () ->
         Obs.Trace.with_span ~cat:"aging" "aging.duty_tables" @@ fun () ->
         Compiled.Duty.shifts (duty_of a ~node_sp ~sp_key polarity) m))

let shifts config a ~node_sp = shifts_of config a ~node_sp ~sp_key:(sp_key a ~node_sp) `Pmos

(* A standby vector's per-gate fanin indices, from one simulation in
   [scratch] (or a fresh one). *)
let standby_idxs (a : Compiled.Arena.t) ?scratch v =
  if Array.length v <> Array.length a.Compiled.Arena.pis then
    invalid_arg "Circuit_aging.analyze: standby vector length";
  let s = match scratch with Some s -> s | None -> Compiled.Logic.leak_scratch a in
  Compiled.Arena.eval_bool a ~inputs:v ~vals:s.Compiled.Logic.vals ~idxs:s.Compiled.Logic.idxs;
  s.Compiled.Logic.idxs

(* The pairs the tables encode: each flat stage's active duty, with the
   standby duty 1.0 or 0.0 by the stage's bit in its gate's
   stressed-stage mask. A vector's fanin index picks the mask from the
   stress table; a bounding state sets every bit or none, mirrored
   across polarity: all nodes 0 stresses every PMOS and relaxes every
   NMOS, all nodes 1 the converse. *)
let duty_table ?(polarity = `Pmos) t ~node_sp ~standby =
  let a = Compiled.Arena.get t in
  let duty = duty_of a ~node_sp ~sp_key:(sp_key a ~node_sp) polarity in
  let mask =
    match standby with
    | Standby_vector v ->
      let idxs = standby_idxs a v in
      fun i -> duty.Compiled.Duty.stress.(a.Compiled.Arena.cell_of.(i)).(idxs.(i))
    | Standby_all_stressed -> Fun.const (if polarity = `Pmos then -1 else 0)
    | Standby_all_relaxed -> Fun.const (if polarity = `Nmos then -1 else 0)
  in
  Array.init a.Compiled.Arena.n_nodes (fun i ->
      if a.Compiled.Arena.op.(i) = Compiled.Arena.op_pi then [||]
      else begin
        let b = a.Compiled.Arena.stage_off.(i) and m = mask i in
        Array.init (a.Compiled.Arena.stage_off.(i + 1) - b) (fun s ->
            (duty.Compiled.Duty.active.(b + s), if (m lsr s) land 1 = 1 then 1.0 else 0.0))
      end)

(* The per-stage R-D model evaluation (schedule -> c_eq -> dVth for every
   gate stage) is the aging chain's analytical core; it gets its own span
   so traces attribute time to it separately from the STA passes. *)
let stage_dvth_of_duties config ~duties =
  let m = model config `Pmos in
  let table =
    Obs.Trace.with_span ~cat:"aging"
      ~args:[ ("gates", Obs.Fields.Int (Array.length duties)) ]
      "aging.dvth_table"
    @@ fun () ->
    Array.map (Array.map (fun (active, standby) -> Compiled.Duty.dvth m ~active ~standby)) duties
  in
  fun ~gate ~stage -> table.(gate).(stage)

(* Per flat stage, the shifts of one polarity under a standby state,
   with their max fold: a vector is simulated once and picks per stage;
   the bounding states are one stored table each, mirrored across
   polarity as in [duty_table]. *)
let pick config (a : Compiled.Arena.t) ?scratch ~node_sp ~standby () =
  let sp_key = sp_key a ~node_sp in
  let shifts polarity = shifts_of config a ~node_sp ~sp_key polarity in
  match standby with
  | Standby_vector v ->
    let idxs = standby_idxs a ?scratch v in
    fun polarity ->
      let dvth = Array.make a.Compiled.Arena.n_stages 0.0 in
      let max_dvth = Compiled.Duty.pick (shifts polarity) ~idxs ~dvth in
      (dvth, max_dvth)
  | Standby_all_stressed ->
    fun polarity -> Compiled.Duty.bound (shifts polarity) ~stressed:(polarity = `Pmos)
  | Standby_all_relaxed ->
    fun polarity -> Compiled.Duty.bound (shifts polarity) ~stressed:(polarity = `Nmos)

let stage_dvth_map config t ~node_sp ~standby =
  let a = Compiled.Arena.get t in
  let dvth, _ = pick config a ~node_sp ~standby () `Pmos in
  fun ~gate ~stage -> dvth.(a.Compiled.Arena.stage_off.(gate) + stage)

let shape_memo : Compiled.Aging.t Parallel.Cache.t = Parallel.Cache.create ~capacity:16 ()

let pmos_shape config t (a : Compiled.Arena.t) ~node_sp ~standby =
  let buf = Buffer.create 512 in
  Compiled.Memo.Fp.s buf a.Compiled.Arena.digest;
  Compiled.Memo.Fp.s buf "pmos";
  fp_config buf config;
  Compiled.Memo.Fp.floats buf node_sp;
  fp_standby buf standby;
  fst
    (Parallel.Cache.find_or_add shape_memo (Compiled.Memo.Fp.digest buf) (fun () ->
         Compiled.Aging.build a (model config `Pmos) ~duties:(duty_table t ~node_sp ~standby)))

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
  fst
    (Parallel.Cache.find_or_add shape_memo (Compiled.Memo.Fp.digest buf) (fun () ->
         Compiled.Aging.build a (model config `Pmos) ~duties))

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
  { fresh; aged; degradation = Compiled.Timing.degradation ~fresh ~aged; max_dvth }

let analyze_arena config (a : Compiled.Arena.t) ?po_load ?scratch ~node_sp ~standby () =
  let pick = pick config a ?scratch ~node_sp ~standby () in
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
