(* The mitigation portfolio: every NBTI lever in the library on one block.

   A designer has a datapath block, a 400 K active / hot standby mission
   profile, and a ten-year life requirement. This example runs each
   technique the paper discusses or motivates — guard-banding (baseline),
   input vector control, MLV rotation, control points, sleep transistor
   insertion, dual-Vth assignment, and NBTI-aware sizing — and compares
   what each buys and what it costs.

   Run with: dune exec examples/mitigation_portfolio.exe *)

let () =
  let net = Circuit.Generators.by_name "c432" in
  let aging = Aging.Circuit_aging.default_config ~t_standby:400.0 () in
  let sp = Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5) in
  let tech = aging.Aging.Circuit_aging.tech in
  let tables = Leakage.Circuit_leakage.build_tables tech net ~temp_k:400.0 in
  let rng = Physics.Rng.create ~seed:99 in
  let n_pi = Circuit.Netlist.n_primary_inputs net in

  Format.printf "block: %a@." Circuit.Netlist.pp_stats (Circuit.Netlist.stats net);
  Format.printf "mission: RAS 1:9, T_active = 400 K, T_standby = 400 K (hot standby), 10 years@.@.";

  let baseline =
    Aging.Circuit_aging.analyze aging net ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  let fresh = baseline.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay in
  let pct x = Flow.Report.cell_pct x in
  let rows = ref [] in
  let add name aged_delay cost =
    rows := [ name; pct ((aged_delay /. fresh) -. 1.0); cost ] :: !rows
  in

  (* 0. Do nothing: reserve a guardband. *)
  add "guardband only (worst case)" baseline.Aging.Circuit_aging.aged.Compiled.Timing.max_delay
    "timing margin";

  (* 1. IVC: hold the co-optimal minimum-leakage vector. *)
  let ivc, _ = Ivc.Co_opt.run aging tables net ~node_sp:sp ~rng () in
  add "IVC (co-optimal MLV)" ivc.Ivc.Co_opt.best.Ivc.Co_opt.aged_delay "flip-flop mux at PIs";

  (* 2. Rotation among complementary MLVs. *)
  let pool, _ =
    Ivc.Mlv.probability_based tables net ~rng:(Physics.Rng.create ~seed:100) ~tolerance:0.25
      ~max_set:48 ()
  in
  let plan = Ivc.Rotation.select_complementary net ~candidates:pool ~k:6 in
  let rot = Ivc.Rotation.analyze aging net ~node_sp:sp plan () in
  add
    (Printf.sprintf "MLV rotation (%d vectors)" (Array.length plan.Ivc.Rotation.vectors))
    rot.Aging.Circuit_aging.aged.Compiled.Timing.max_delay "vector sequencer";

  (* 3. Control points on internal nets. *)
  let cp =
    Ivc.Control_point.evaluate aging net ~standby_vector:(Array.make n_pi true) ~budget:12 ()
  in
  add
    (Printf.sprintf "control points (%d inserted)" cp.Ivc.Control_point.n_control_points)
    cp.Ivc.Control_point.aged_with_cp
    (Printf.sprintf "+%s%% area" (pct cp.Ivc.Control_point.area_overhead));

  (* 4. Sleep transistor insertion (footer+header, NBTI-aware). *)
  let st =
    Sleep.St_insertion.analyze aging net ~node_sp:sp ~style:Sleep.St_insertion.Footer_and_header
      ~beta:0.01 ()
  in
  add "sleep transistors (beta 1%)" st.Sleep.St_insertion.aged_delay_with_st
    "virtual rails + ST area";

  (* 5. Dual-Vth: leakage first, aging second. *)
  let dv =
    Mitigation.Dual_vth.optimize
      (Mitigation.Dual_vth.default_config aging)
      net ~node_sp:sp ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  add
    (Printf.sprintf "dual-Vth (%d/%d HVT)" dv.Mitigation.Dual_vth.n_hvt dv.Mitigation.Dual_vth.n_gates)
    (dv.Mitigation.Dual_vth.fresh_after *. (1.0 +. dv.Mitigation.Dual_vth.degradation_after))
    (Printf.sprintf "%s%% leakage saved"
       (pct
          (1.0
          -. (dv.Mitigation.Dual_vth.active_leakage_after
             /. dv.Mitigation.Dual_vth.active_leakage_before))));

  (* 6. NBTI-aware sizing: buy the margin back with area. *)
  let gs =
    Mitigation.Gate_sizing.optimize aging net ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed ~margin:0.01 ()
  in
  add "NBTI-aware sizing (1% margin)" gs.Mitigation.Gate_sizing.aged_after
    (Printf.sprintf "+%s%% area" (pct gs.Mitigation.Gate_sizing.area_overhead));

  Flow.Report.print
    {
      Flow.Report.title =
        Printf.sprintf "ten-year delay vs the fresh %.1f ps baseline, by mitigation" (fresh *. 1e12);
      header = [ "technique"; "aged delay vs fresh[%]"; "cost" ];
      rows = List.rev !rows;
    };

  (* Lifetime view: what each standby policy buys at a fixed 3 % margin. *)
  Format.printf "lifetime at a 3 %% guardband:@.";
  List.iter
    (fun (label, standby) ->
      match Aging.Lifetime.solve aging net ~node_sp:sp ~standby ~margin:0.03 () with
      | `Lifetime t -> Format.printf "  %-28s %.2f years@." label (t /. Physics.Units.year)
      | `Never_fails -> Format.printf "  %-28s > 30 years@." label
      | `Fails_immediately -> Format.printf "  %-28s < 1 hour@." label)
    [
      ("worst-case standby", Aging.Circuit_aging.Standby_all_stressed);
      ("power-gated standby", Aging.Circuit_aging.Standby_all_relaxed);
    ]
