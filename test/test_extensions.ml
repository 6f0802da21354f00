(* Tests for the extension modules built on the paper's future-work and
   related-work directions: slacks, lifetime solving, MLV rotation,
   control-point insertion, NBTI-aware gate sizing, dual-Vth assignment,
   drive-strength cells and the multi-node thermal grid. *)

let tech = Device.Tech.ptm_90nm
let c17 = Circuit.Generators.c17 ()
let c432 = Circuit.Generators.by_name "c432"

let sp net = Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5)
let sp17 = sp c17
let sp432 = sp c432
let aging = Aging.Circuit_aging.default_config ()

let fresh_timing net =
  Compiled.Timing.fresh_result (Compiled.Timing.get (Compiled.Arena.get net) ~tech ~temp_k:400.0 ())

let check_close ?(eps = 1e-9) msg expected actual = Alcotest.(check (float eps)) msg expected actual

(* --- Stdcell.scaled --- *)

let test_scaled_naming () =
  let x2 = Cell.Stdcell.scaled (Cell.Stdcell.nand_ 2) ~drive:2.0 in
  Alcotest.(check string) "name" "NAND2_X2" x2.Cell.Stdcell.name;
  check_close "drive recorded" 2.0 (Cell.Stdcell.drive_of x2);
  Alcotest.(check string) "base name" "NAND2" (Cell.Stdcell.base_name x2);
  let x4 = Cell.Stdcell.scaled x2 ~drive:2.0 in
  Alcotest.(check string) "composes" "NAND2_X4" x4.Cell.Stdcell.name;
  let back = Cell.Stdcell.scaled x2 ~drive:0.5 in
  Alcotest.(check string) "unscaling restores the library name" "NAND2" back.Cell.Stdcell.name

let test_scaled_preserves_logic () =
  let cell = Cell.Stdcell.scaled Cell.Stdcell.xor2 ~drive:3.0 in
  Alcotest.(check (array bool)) "truth table unchanged" (Cell.Stdcell.truth_table Cell.Stdcell.xor2)
    (Cell.Stdcell.truth_table cell)

let test_scaled_area_and_cap () =
  let cell = Cell.Stdcell.scaled (Cell.Stdcell.nand_ 2) ~drive:2.0 in
  check_close ~eps:1e-9 "area doubles" (2.0 *. Cell.Stdcell.area (Cell.Stdcell.nand_ 2))
    (Cell.Stdcell.area cell);
  check_close ~eps:1e-20 "input cap doubles"
    (2.0 *. Cell.Cell_delay.input_capacitance tech (Cell.Stdcell.nand_ 2) ~pin_index:0)
    (Cell.Cell_delay.input_capacitance tech cell ~pin_index:0)

let test_scaled_speeds_fixed_load () =
  let load = 1e-14 in
  let base = Cell.Cell_delay.fresh_delay tech (Cell.Stdcell.nand_ 2) ~load ~temp_k:400.0 in
  let fast =
    Cell.Cell_delay.fresh_delay tech (Cell.Stdcell.scaled (Cell.Stdcell.nand_ 2) ~drive:2.0) ~load
      ~temp_k:400.0
  in
  Alcotest.(check bool) "roughly halves" true (fast < 0.7 *. base)

(* --- Compiled.Slack --- *)

let slack_of net =
  let timing = fresh_timing net in
  (timing, Compiled.Slack.compute net ~timing ())

let test_slack_critical_path_zero () =
  let timing, slack = slack_of c432 in
  List.iter
    (fun i ->
      Alcotest.(check bool) "critical path has ~zero slack" true
        (Float.abs slack.Compiled.Slack.slack.(i) < 1e-15))
    timing.Compiled.Timing.critical_path

let test_slack_nonnegative_at_critical_target () =
  let _, slack = slack_of c432 in
  Array.iter
    (fun s -> Alcotest.(check bool) "no negative slack at own target" true (s >= -1e-15))
    slack.Compiled.Slack.slack;
  Alcotest.(check bool) "min slack is zero" true (Float.abs (Compiled.Slack.min_slack slack) < 1e-15)

let test_slack_tighter_target_negative () =
  let timing = fresh_timing c432 in
  let slack =
    Compiled.Slack.compute c432 ~timing ~target:(0.9 *. timing.Compiled.Timing.max_delay) ()
  in
  Alcotest.(check bool) "tight target gives negative slack" true (Compiled.Slack.min_slack slack < 0.0)

let test_slack_critical_nodes () =
  let timing, slack = slack_of c432 in
  let critical = Compiled.Slack.critical_nodes slack ~eps:1e-15 in
  List.iter
    (fun i ->
      Alcotest.(check bool) "path nodes among critical" true (List.mem i critical))
    timing.Compiled.Timing.critical_path;
  Alcotest.(check bool) "positive budget" true (Compiled.Slack.total_positive_slack slack > 0.0)

(* --- Aging.Lifetime --- *)

let test_lifetime_monotone_in_margin () =
  let solve margin =
    Aging.Lifetime.solve aging c432 ~node_sp:sp432 ~standby:Aging.Circuit_aging.Standby_all_stressed
      ~margin ()
  in
  match (solve 0.02, solve 0.035) with
  | `Lifetime t2, `Lifetime t35 ->
    Alcotest.(check bool) "larger margin, longer life" true (t35 > t2);
    (* Cross-check: degradation at the solved lifetime matches the margin. *)
    let d =
      Aging.Lifetime.degradation_at aging c432 ~node_sp:sp432
        ~standby:Aging.Circuit_aging.Standby_all_stressed ~time:t2
    in
    Alcotest.(check bool) "solution consistent" true (Float.abs (d -. 0.02) < 0.002)
  | _ -> Alcotest.fail "expected finite lifetimes for 2-3.5% margins"

let test_lifetime_extremes () =
  let solve margin =
    Aging.Lifetime.solve aging c432 ~node_sp:sp432 ~standby:Aging.Circuit_aging.Standby_all_stressed
      ~margin ()
  in
  Alcotest.(check bool) "huge margin never fails" true (solve 0.5 = `Never_fails);
  Alcotest.(check bool) "tiny margin fails immediately" true (solve 1e-5 = `Fails_immediately)

let test_lifetime_gated_outlives_stressed () =
  let solve standby =
    Aging.Lifetime.solve aging c432 ~node_sp:sp432 ~standby ~margin:0.03 ()
  in
  match (solve Aging.Circuit_aging.Standby_all_stressed, solve Aging.Circuit_aging.Standby_all_relaxed) with
  | `Lifetime stressed, `Lifetime relaxed ->
    Alcotest.(check bool) "standby relief extends lifetime" true (relaxed > stressed)
  | `Lifetime _, `Never_fails -> () (* even better *)
  | _ -> Alcotest.fail "unexpected solver outcome"

(* --- Ivc.Rotation --- *)

let mlv_candidates net =
  let tables = Leakage.Circuit_leakage.build_tables tech net ~temp_k:400.0 in
  (tables, fst (Ivc.Mlv.probability_based tables net ~rng:(Physics.Rng.create ~seed:5) ()))

let test_rotation_plan_validation () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Ivc.Rotation.uniform_plan []);
       false
     with Invalid_argument _ -> true);
  let p = Ivc.Rotation.uniform_plan [ [| true; false |]; [| false; true |] ] in
  check_close "weights sum to 1" 1.0 (Array.fold_left ( +. ) 0.0 p.Ivc.Rotation.weights)

let test_rotation_duty_blending () =
  (* Rotating the all-0 and all-1 c17 vectors: every standby duty must be
     the average of the two per-vector duties. *)
  let v0 = Array.make 5 false and v1 = Array.make 5 true in
  let plan = Ivc.Rotation.uniform_plan [ v0; v1 ] in
  let blended = Ivc.Rotation.duties c17 ~node_sp:sp17 plan in
  let d0 = Aging.Circuit_aging.duty_table c17 ~node_sp:sp17 ~standby:(Aging.Circuit_aging.Standby_vector v0) in
  let d1 = Aging.Circuit_aging.duty_table c17 ~node_sp:sp17 ~standby:(Aging.Circuit_aging.Standby_vector v1) in
  Array.iteri
    (fun i stages ->
      Array.iteri
        (fun s (active, standby) ->
          check_close ~eps:1e-12 "active unchanged" (fst d0.(i).(s)) active;
          check_close ~eps:1e-12 "standby averaged"
            (0.5 *. (snd d0.(i).(s) +. snd d1.(i).(s)))
            standby)
        stages)
    blended

let test_rotation_bounded_by_worst_vector () =
  (* Blending guarantees the rotated max device shift never exceeds the
     worst single candidate's (per-stage duties are averages). *)
  let _, candidates = mlv_candidates c432 in
  let plan = Ivc.Rotation.select_complementary c432 ~candidates ~k:4 in
  let analyze p = (Ivc.Rotation.analyze aging c432 ~node_sp:sp432 p ()).Aging.Circuit_aging.max_dvth in
  let worst_single =
    List.fold_left
      (fun acc (c : Ivc.Mlv.candidate) ->
        Float.max acc (analyze (Ivc.Rotation.uniform_plan [ c.Ivc.Mlv.vector ])))
      0.0 candidates
  in
  Alcotest.(check bool) "rotation below the worst vector" true
    (analyze plan <= worst_single +. 1e-12)

let test_rotation_spreads_designed_conflict () =
  (* A circuit where the two vectors stress disjoint inverters: rotation
     must halve every standby duty and cut the max shift strictly. *)
  let b = Circuit.Netlist.Builder.create ~name:"conflict" in
  let a = Circuit.Netlist.Builder.input b "a" in
  let c = Circuit.Netlist.Builder.input b "b" in
  let i1 = Circuit.Netlist.Builder.not_ b a in
  let i2 = Circuit.Netlist.Builder.not_ b c in
  Circuit.Netlist.Builder.output b i1;
  Circuit.Netlist.Builder.output b i2;
  let net = Circuit.Netlist.Builder.finish b in
  let spn = Logic.Signal_prob.analytic net ~input_sp:[| 0.5; 0.5 |] in
  (* vector 01 stresses i1, vector 10 stresses i2 *)
  let v01 = [| false; true |] and v10 = [| true; false |] in
  let plan = Ivc.Rotation.uniform_plan [ v01; v10 ] in
  let analyze p = (Ivc.Rotation.analyze aging net ~node_sp:spn p ()).Aging.Circuit_aging.max_dvth in
  let single = analyze (Ivc.Rotation.uniform_plan [ v01 ]) in
  Alcotest.(check bool) "strictly lower max shift" true (analyze plan < single -. 1e-6)

let test_rotation_leakage_is_weighted () =
  let tables, _ = mlv_candidates c17 in
  let v0 = Array.make 5 false and v1 = Array.make 5 true in
  let plan = Ivc.Rotation.uniform_plan [ v0; v1 ] in
  let l0 = Leakage.Circuit_leakage.standby_leakage tables c17 ~vector:v0 in
  let l1 = Leakage.Circuit_leakage.standby_leakage tables c17 ~vector:v1 in
  check_close ~eps:1e-15 "mean of the two" (0.5 *. (l0 +. l1))
    (Ivc.Rotation.leakage_of_plan tables c17 plan)

let test_rotation_select_bounds () =
  let _, candidates = mlv_candidates c432 in
  let plan = Ivc.Rotation.select_complementary c432 ~candidates ~k:3 in
  Alcotest.(check bool) "at most k vectors" true (Array.length plan.Ivc.Rotation.vectors <= 3);
  Alcotest.(check bool) "at least one" true (Array.length plan.Ivc.Rotation.vectors >= 1)

(* --- Ivc.Control_point --- *)

let test_control_point_insert_logic_active () =
  (* With sleep_n = 1 the rewritten circuit computes the original
     function. c17 is all-NAND, so an all-1 standby vector is the one
     that drives internal nets to 0 and creates candidates. *)
  let standby_vector = Array.make 5 true in
  let input_sp = Array.make 5 0.5 in
  let timing = fresh_timing c17 in
  let slack = Compiled.Slack.compute c17 ~timing ~target:(1.5 *. timing.Compiled.Timing.max_delay) () in
  let candidates =
    Ivc.Control_point.candidate_gates c17 ~standby_vector ~timing ~slack
      ~slack_eps:(0.8 *. timing.Compiled.Timing.max_delay)
  in
  Alcotest.(check bool) "c17 has candidates" true (candidates <> []);
  let ins =
    Ivc.Control_point.insert c17 ~standby_vector ~input_sp ~gates:[ fst (List.hd candidates) ]
  in
  let pis = Circuit.Netlist.primary_inputs ins.Ivc.Control_point.netlist in
  for idx = 0 to 31 do
    let base_inputs = Array.init 5 (fun i -> (idx lsr i) land 1 = 1) in
    (* Build the rewritten circuit's input vector by PI name. *)
    let inputs =
      Array.map
        (fun id ->
          match Circuit.Netlist.node_name ins.Ivc.Control_point.netlist id with
          | "sleep_n" -> true
          | name ->
            let k = ref (-1) in
            Array.iteri
              (fun j pid -> if Circuit.Netlist.node_name c17 pid = name then k := j)
              (Circuit.Netlist.primary_inputs c17);
            base_inputs.(!k))
        pis
    in
    Alcotest.(check (array bool))
      (Printf.sprintf "function preserved (vector %d)" idx)
      (Logic.Eval.eval_outputs c17 ~inputs:base_inputs)
      (Logic.Eval.eval_outputs ins.Ivc.Control_point.netlist ~inputs)
  done

let test_control_point_forces_one_in_standby () =
  let standby_vector = Array.make 5 true in
  let input_sp = Array.make 5 0.5 in
  let timing = fresh_timing c17 in
  let slack = Compiled.Slack.compute c17 ~timing ~target:(1.5 *. timing.Compiled.Timing.max_delay) () in
  let candidates =
    Ivc.Control_point.candidate_gates c17 ~standby_vector ~timing ~slack
      ~slack_eps:(0.8 *. timing.Compiled.Timing.max_delay)
  in
  let gate = fst (List.hd candidates) in
  let gate_name = Circuit.Netlist.node_name c17 gate in
  let ins = Ivc.Control_point.insert c17 ~standby_vector ~input_sp ~gates:[ gate ] in
  let values =
    Logic.Eval.eval ins.Ivc.Control_point.netlist ~inputs:ins.Ivc.Control_point.standby_vector
  in
  let new_id = ref (-1) in
  Array.iteri
    (fun i _ ->
      if Circuit.Netlist.node_name ins.Ivc.Control_point.netlist i = gate_name then new_id := i)
    ins.Ivc.Control_point.netlist.Circuit.Netlist.nodes;
  Alcotest.(check bool) "controlled gate forced to 1 in standby" true values.(!new_id)

let test_control_point_wins_on_c17 () =
  (* Where the structure permits (every stressed gate's driver is a
     replaceable NAND and sits off the critical path), a control point
     realizes part of Table 4's potential at zero fresh-delay cost. *)
  let hot = Aging.Circuit_aging.default_config ~t_standby:400.0 () in
  let e =
    Ivc.Control_point.evaluate hot c17 ~standby_vector:(Array.make 5 true) ~budget:6
      ~slack_eps_fraction:0.5 ()
  in
  Alcotest.(check bool) "control point placed" true (e.Ivc.Control_point.n_control_points > 0);
  Alcotest.(check bool) "end-of-life delay improves" true
    (e.Ivc.Control_point.aged_improvement > 0.005);
  Alcotest.(check bool) "no fresh-delay cost here" true
    (e.Ivc.Control_point.fresh_with_cp <= e.Ivc.Control_point.baseline_fresh *. 1.001)

let test_control_point_never_hurts () =
  (* The verified greedy refuses insertions that cost more than they
     relieve: on c432 most stressed critical gates are fed by
     non-replaceable cells, so the realized gain is near zero - but never
     negative. *)
  let e =
    Ivc.Control_point.evaluate aging c432 ~standby_vector:(Array.make 36 true) ~budget:12 ()
  in
  Alcotest.(check bool) "never worse than baseline" true
    (e.Ivc.Control_point.aged_improvement >= 0.0);
  Alcotest.(check bool) "area overhead bounded" true
    (e.Ivc.Control_point.area_overhead >= 0.0 && e.Ivc.Control_point.area_overhead < 0.1)

let test_control_point_rejects_nor () =
  (* NOR gates have no forcing-to-1 replacement. *)
  let b = Circuit.Netlist.Builder.create ~name:"t" in
  let a = Circuit.Netlist.Builder.input b "a" in
  let c = Circuit.Netlist.Builder.input b "b" in
  let g = Circuit.Netlist.Builder.nor2 b a c in
  Circuit.Netlist.Builder.output b g;
  let net = Circuit.Netlist.Builder.finish b in
  Alcotest.(check bool) "NOR not replaceable" true
    (try
       ignore
         (Ivc.Control_point.insert net ~standby_vector:[| false; false |]
            ~input_sp:[| 0.5; 0.5 |] ~gates:[ g ]);
       false
     with Invalid_argument _ -> true)

(* --- Mitigation.Gate_sizing --- *)

let test_sizing_meets_target () =
  let r =
    Mitigation.Gate_sizing.optimize aging c432 ~node_sp:sp432
      ~standby:Aging.Circuit_aging.Standby_all_stressed ~margin:0.01 ()
  in
  Alcotest.(check bool) "target met" true r.Mitigation.Gate_sizing.met;
  Alcotest.(check bool) "aged after <= target" true
    (r.Mitigation.Gate_sizing.aged_after <= r.Mitigation.Gate_sizing.target +. 1e-18);
  Alcotest.(check bool) "started above target" true
    (r.Mitigation.Gate_sizing.aged_before > r.Mitigation.Gate_sizing.target);
  Alcotest.(check bool) "area overhead positive, bounded" true
    (r.Mitigation.Gate_sizing.area_overhead > 0.0 && r.Mitigation.Gate_sizing.area_overhead < 0.5)

let test_sizing_drives_bounded () =
  let r =
    Mitigation.Gate_sizing.optimize aging c432 ~node_sp:sp432
      ~standby:Aging.Circuit_aging.Standby_all_stressed ~margin:0.01 ~max_drive:4.0 ()
  in
  Array.iter
    (fun d -> Alcotest.(check bool) "drive within [1, max]" true (d >= 1.0 && d <= 4.0 +. 1e-9))
    r.Mitigation.Gate_sizing.drives

let test_sizing_loose_margin_noop () =
  let r =
    Mitigation.Gate_sizing.optimize aging c432 ~node_sp:sp432
      ~standby:Aging.Circuit_aging.Standby_all_stressed ~margin:0.5 ()
  in
  Alcotest.(check int) "no iterations needed" 0 r.Mitigation.Gate_sizing.iterations;
  check_close "no area change" 0.0 r.Mitigation.Gate_sizing.area_overhead

(* --- Mitigation.Dual_vth --- *)

let dvth_config = Mitigation.Dual_vth.default_config aging

let test_dual_vth_factor () =
  let f = Mitigation.Dual_vth.hvt_delay_factor dvth_config in
  Alcotest.(check bool) "HVT slower" true (f > 1.0 && f < 1.5)

let test_dual_vth_assignment () =
  let r =
    Mitigation.Dual_vth.optimize dvth_config c432 ~node_sp:sp432
      ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  Alcotest.(check bool) "some gates flipped" true (r.Mitigation.Dual_vth.n_hvt > 0);
  Alcotest.(check bool) "not everything (critical path stays LVT)" true
    (r.Mitigation.Dual_vth.n_hvt < r.Mitigation.Dual_vth.n_gates);
  Alcotest.(check bool) "timing preserved" true
    (r.Mitigation.Dual_vth.fresh_after <= r.Mitigation.Dual_vth.fresh_before *. 1.0 +. 1e-15);
  Alcotest.(check bool) "leakage reduced" true
    (r.Mitigation.Dual_vth.active_leakage_after < r.Mitigation.Dual_vth.active_leakage_before);
  Alcotest.(check bool) "standby leakage bound reduced" true
    (r.Mitigation.Dual_vth.standby_leakage_after < r.Mitigation.Dual_vth.standby_leakage_before)

let test_dual_vth_critical_path_stays_lvt () =
  let r =
    Mitigation.Dual_vth.optimize dvth_config c432 ~node_sp:sp432
      ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  let timing = fresh_timing c432 in
  List.iter
    (fun i ->
      match c432.Circuit.Netlist.nodes.(i) with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate _ ->
        Alcotest.(check bool) "zero-slack gates keep LVT" false r.Mitigation.Dual_vth.assignment.(i))
    timing.Compiled.Timing.critical_path

(* --- Thermal.Grid --- *)

let grid = Thermal.Grid.create ()

let test_grid_uniform_matches_band () =
  let n = Thermal.Grid.n_blocks grid in
  let state = Thermal.Grid.steady_state grid ~powers:(Array.make n (100.0 /. float_of_int n)) in
  let hottest = Thermal.Grid.hottest state in
  Alcotest.(check bool) "100W lands in the Fig. 2 band" true (hottest > 350.0 && hottest < 385.0)

let test_grid_hotspot_gradient () =
  let n = Thermal.Grid.n_blocks grid in
  let p = Array.make n 0.0 in
  p.(0) <- 100.0;
  let state = Thermal.Grid.steady_state grid ~powers:p in
  let hot = Thermal.Grid.block_temp grid state ~row:0 ~col:0 in
  let far = Thermal.Grid.block_temp grid state ~row:3 ~col:3 in
  Alcotest.(check bool) "spatial gradient" true (hot -. far > 15.0);
  Alcotest.(check bool) "far corner still above ambient" true (far > 330.0)

let test_grid_zero_power_is_ambient () =
  let n = Thermal.Grid.n_blocks grid in
  let state = Thermal.Grid.steady_state grid ~powers:(Array.make n 0.0) in
  Array.iter (fun t -> check_close ~eps:0.5 "ambient" 323.0 t) state

let test_grid_step_toward_steady () =
  let n = Thermal.Grid.n_blocks grid in
  let powers = Array.make n 5.0 in
  let target = Thermal.Grid.hottest (Thermal.Grid.steady_state grid ~powers) in
  let state = ref (Thermal.Grid.uniform_state grid ~temp_k:323.0) in
  for _ = 1 to 500 do
    state := Thermal.Grid.step grid ~state:!state ~powers ~dt:5.0
  done;
  Alcotest.(check bool) "converges to steady state" true
    (Float.abs (Thermal.Grid.hottest !state -. target) < 1.0)

let test_grid_simulate_shape () =
  let n = Thermal.Grid.n_blocks grid in
  let samples =
    Thermal.Grid.simulate grid
      ~state:(Thermal.Grid.uniform_state grid ~temp_k:330.0)
      ~powers:[| (100.0, Array.make n 6.0) |]
      ~dt:10.0
  in
  Alcotest.(check int) "sample count" 11 (Array.length samples);
  let t_last, _ = samples.(10) in
  check_close "end time" 100.0 t_last

let test_grid_energy_conservation_direction () =
  (* More power in any block raises every temperature. *)
  let n = Thermal.Grid.n_blocks grid in
  let base = Thermal.Grid.steady_state grid ~powers:(Array.make n 3.0) in
  let p = Array.make n 3.0 in
  p.(5) <- 20.0;
  let boosted = Thermal.Grid.steady_state grid ~powers:p in
  Array.iteri
    (fun i t -> Alcotest.(check bool) "monotone in power" true (boosted.(i) >= t -. 1e-6))
    base

let () =
  Alcotest.run "extensions"
    [
      ( "scaled-cells",
        [
          Alcotest.test_case "naming" `Quick test_scaled_naming;
          Alcotest.test_case "logic preserved" `Quick test_scaled_preserves_logic;
          Alcotest.test_case "area and capacitance" `Quick test_scaled_area_and_cap;
          Alcotest.test_case "faster at fixed load" `Quick test_scaled_speeds_fixed_load;
        ] );
      ( "slack",
        [
          Alcotest.test_case "critical path zero slack" `Quick test_slack_critical_path_zero;
          Alcotest.test_case "nonnegative at own target" `Quick test_slack_nonnegative_at_critical_target;
          Alcotest.test_case "tight target negative" `Quick test_slack_tighter_target_negative;
          Alcotest.test_case "critical nodes" `Quick test_slack_critical_nodes;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "monotone in margin" `Quick test_lifetime_monotone_in_margin;
          Alcotest.test_case "extremes" `Quick test_lifetime_extremes;
          Alcotest.test_case "gating extends lifetime" `Quick test_lifetime_gated_outlives_stressed;
        ] );
      ( "rotation",
        [
          Alcotest.test_case "plan validation" `Quick test_rotation_plan_validation;
          Alcotest.test_case "duty blending" `Quick test_rotation_duty_blending;
          Alcotest.test_case "bounded by worst vector" `Quick test_rotation_bounded_by_worst_vector;
          Alcotest.test_case "spreads designed conflict" `Quick test_rotation_spreads_designed_conflict;
          Alcotest.test_case "weighted leakage" `Quick test_rotation_leakage_is_weighted;
          Alcotest.test_case "selection bounds" `Quick test_rotation_select_bounds;
        ] );
      ( "control-point",
        [
          Alcotest.test_case "active logic preserved" `Quick test_control_point_insert_logic_active;
          Alcotest.test_case "forces 1 in standby" `Quick test_control_point_forces_one_in_standby;
          Alcotest.test_case "wins on c17" `Quick test_control_point_wins_on_c17;
          Alcotest.test_case "never hurts (c432)" `Quick test_control_point_never_hurts;
          Alcotest.test_case "NOR rejected" `Quick test_control_point_rejects_nor;
        ] );
      ( "gate-sizing",
        [
          Alcotest.test_case "meets target" `Quick test_sizing_meets_target;
          Alcotest.test_case "drives bounded" `Quick test_sizing_drives_bounded;
          Alcotest.test_case "loose margin no-op" `Quick test_sizing_loose_margin_noop;
        ] );
      ( "dual-vth",
        [
          Alcotest.test_case "delay factor" `Quick test_dual_vth_factor;
          Alcotest.test_case "assignment effects" `Quick test_dual_vth_assignment;
          Alcotest.test_case "critical path stays LVT" `Quick test_dual_vth_critical_path_stays_lvt;
        ] );
      ( "thermal-grid",
        [
          Alcotest.test_case "uniform power band" `Quick test_grid_uniform_matches_band;
          Alcotest.test_case "hotspot gradient" `Quick test_grid_hotspot_gradient;
          Alcotest.test_case "zero power ambient" `Quick test_grid_zero_power_is_ambient;
          Alcotest.test_case "transient convergence" `Quick test_grid_step_toward_steady;
          Alcotest.test_case "simulate shape" `Quick test_grid_simulate_shape;
          Alcotest.test_case "monotone in power" `Quick test_grid_energy_conservation_direction;
        ] );
    ]
