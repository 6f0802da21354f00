(* Extension experiments: the paper's related-work and future-work
   directions implemented on top of the temperature-aware model. *)

let tech = Device.Tech.ptm_90nm
let params = Nbti.Rd_model.default_params
let ten_years = Physics.Units.ten_years

let prep name =
  let net = Circuit.Generators.by_name name in
  let sp = Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5) in
  (net, sp)

(* --- ext1: MLV rotation (Penelope [23]) --- *)

let rotation () =
  let rows =
    List.concat_map
      (fun name ->
        let net, sp = prep name in
        let tables = Leakage.Circuit_leakage.build_tables tech net ~temp_k:400.0 in
        (* A diverse near-minimum pool: rotation needs vectors that stress
           DIFFERENT devices, so widen the leakage band and the set cap. *)
        let candidates, _ =
          Ivc.Mlv.probability_based tables net ~rng:(Physics.Rng.create ~seed:23) ~tolerance:0.25
            ~max_set:48 ()
        in
        let aging = Aging.Circuit_aging.default_config ~t_standby:400.0 () in
        let single = Ivc.Rotation.uniform_plan [ (List.hd candidates).Ivc.Mlv.vector ] in
        let rotated = Ivc.Rotation.select_complementary net ~candidates ~k:6 in
        let row label plan =
          let a = Ivc.Rotation.analyze aging net ~node_sp:sp plan () in
          [
            name;
            label;
            string_of_int (Array.length plan.Ivc.Rotation.vectors);
            Flow.Report.cell_mv a.Aging.Circuit_aging.max_dvth;
            Flow.Report.cell_pct a.Aging.Circuit_aging.degradation;
            Flow.Report.cell_si ~unit:"A" (Ivc.Rotation.leakage_of_plan tables net plan);
          ]
        in
        [ row "hold best MLV" single; row "rotate complementary" rotated ])
      [ "c17"; "c432"; "c880" ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 1 - alternating IVC (Penelope [23]), RAS 1:9, 400K standby:\n\
         rotating complementary MLVs time-shares the standby stress. It cuts\n\
         the max device shift where the pool has complementary vectors (c17);\n\
         where every low-leakage vector pins the same critical nets (c432,\n\
         c880) rotation cannot help - the same weak-lever verdict as Table 3";
      header = [ "circuit"; "standby policy"; "vectors"; "max dVth[mV]"; "deg[%]"; "leakage" ];
      rows;
    }

(* --- ext2: control points - realized vs Table 4 potential --- *)

let control_points () =
  let rows =
    List.concat_map
      (fun (name, budget, eps) ->
        let net, sp = prep name in
        List.map
          (fun t_standby ->
            let aging = Aging.Circuit_aging.default_config ~t_standby () in
            let n_pi = Circuit.Netlist.n_primary_inputs net in
            let e =
              Ivc.Control_point.evaluate aging net ~standby_vector:(Array.make n_pi true) ~budget
                ~slack_eps_fraction:eps ()
            in
            let potential = Ivc.Internal_node.potential aging net ~node_sp:sp in
            [
              name;
              Printf.sprintf "%.0f" t_standby;
              string_of_int e.Ivc.Control_point.n_control_points;
              Flow.Report.cell_pct e.Ivc.Control_point.aged_improvement;
              Flow.Report.cell_pct potential.Ivc.Internal_node.potential;
              Flow.Report.cell_pct e.Ivc.Control_point.area_overhead;
            ])
          [ 330.0; 400.0 ])
      [ ("c17", 6, 0.5); ("c432", 12, 0.15) ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 2 - control point insertion (Lin [9]) vs the Table 4 bound:\n\
         the realized end-of-life gain is a sliver of the potential - most\n\
         stressed critical gates are fed by non-replaceable cells, and the\n\
         verified greedy refuses insertions that cost more than they relieve";
      header = [ "circuit"; "T_stby[K]"; "CPs"; "realized[%]"; "potential[%]"; "area[+%]" ];
      rows;
    }

(* --- ext3: dual-Vth assignment --- *)

let dual_vth () =
  let rows =
    List.map
      (fun name ->
        let net, sp = prep name in
        let aging = Aging.Circuit_aging.default_config () in
        let cfg = Mitigation.Dual_vth.default_config aging in
        let r =
          Mitigation.Dual_vth.optimize cfg net ~node_sp:sp
            ~standby:Aging.Circuit_aging.Standby_all_stressed ()
        in
        [
          name;
          Printf.sprintf "%d/%d" r.Mitigation.Dual_vth.n_hvt r.Mitigation.Dual_vth.n_gates;
          Flow.Report.cell_ps r.Mitigation.Dual_vth.fresh_before;
          Flow.Report.cell_ps r.Mitigation.Dual_vth.fresh_after;
          Flow.Report.cell_pct
            (1.0
            -. (r.Mitigation.Dual_vth.active_leakage_after
               /. r.Mitigation.Dual_vth.active_leakage_before));
          Flow.Report.cell_pct r.Mitigation.Dual_vth.degradation_before;
          Flow.Report.cell_pct r.Mitigation.Dual_vth.degradation_after;
        ])
      [ "c432"; "c499"; "c880" ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 3 - dual-Vth assignment [30] (+80 mV HVT on slack gates, zero\n\
         timing loss): leakage drops sharply at unchanged critical-path aging\n\
         (the critical path keeps LVT by construction); each HVT gate itself\n\
         ages ~25% less (higher Vth0 = lower oxide field, eq. 23), which shows\n\
         up as retained margin on the non-critical paths";
      header =
        [ "circuit"; "HVT gates"; "fresh before[ps]"; "after[ps]"; "leakage saved[%]";
          "deg before[%]"; "deg after[%]" ];
      rows;
    }

(* --- ext4: NBTI-aware gate sizing --- *)

let gate_sizing () =
  let rows =
    List.concat_map
      (fun name ->
        let net, sp = prep name in
        List.map
          (fun margin ->
            let aging = Aging.Circuit_aging.default_config ~t_standby:400.0 () in
            let r =
              Mitigation.Gate_sizing.optimize aging net ~node_sp:sp
                ~standby:Aging.Circuit_aging.Standby_all_stressed ~margin ()
            in
            [
              name;
              Flow.Report.cell_pct margin;
              Flow.Report.cell_ps r.Mitigation.Gate_sizing.aged_before;
              Flow.Report.cell_ps r.Mitigation.Gate_sizing.aged_after;
              (if r.Mitigation.Gate_sizing.met then "yes" else "no");
              Flow.Report.cell_pct r.Mitigation.Gate_sizing.area_overhead;
              string_of_int r.Mitigation.Gate_sizing.iterations;
            ])
          [ 0.05; 0.02; 0.01 ])
      [ "c432"; "c880" ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 4 - NBTI-aware sizing (Paul [22]): upsizing aged-critical-path\n\
         gates until the 10-year delay sits within a margin of the fresh delay\n\
         (worst-case standby @400K). The area cost of shrinking the guardband";
      header = [ "circuit"; "margin[%]"; "aged before[ps]"; "after[ps]"; "met"; "area[+%]"; "iters" ];
      rows;
    }

(* --- ext5: technology scaling --- *)

let scaling () =
  let rows =
    List.map
      (fun (t : Device.Tech.t) ->
        let cond = Nbti.Vth_shift.nominal_pmos t in
        let worst =
          Nbti.Schedule.active_standby ~ras:(1.0, 9.0) ~t_active:400.0 ~t_standby:330.0
            ~active_duty:0.5 ~standby_duty:1.0 ()
        in
        let dv = Nbti.Vth_shift.dvth params t cond ~schedule:worst ~time:ten_years in
        let inv_leak =
          Cell.Cell_leakage.cell_leakage t Cell.Stdcell.inv ~vector:[| false |] ~temp_k:400.0
        in
        [
          t.Device.Tech.name;
          Printf.sprintf "%.0f" (t.Device.Tech.vth_p *. 1e3);
          Printf.sprintf "%.2f" (t.Device.Tech.tox *. 1e9);
          Flow.Report.cell_mv dv;
          Flow.Report.cell_pct (Nbti.Degradation.factor t ~dvth:dv);
          Flow.Report.cell_si ~unit:"A" inv_leak;
        ])
      [ Device.Tech.ptm_90nm; Device.Tech.ptm_65nm; Device.Tech.ptm_45nm ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 5 - technology scaling: thinner oxide and lower Vth raise the\n\
         oxide field, so both the 10-year shift and the leakage grow with\n\
         scaling (the paper's motivation for NBTI-aware design beyond 90nm)";
      header = [ "node"; "Vth[mV]"; "tox[nm]"; "dVth 10y[mV]"; "gate deg[%]"; "INV leakage" ];
      rows;
    }

(* --- ext6: lifetime / guardband solving --- *)

let lifetime () =
  let net, sp = prep "c432" in
  let rows =
    List.concat_map
      (fun (label, standby) ->
        let aging = Aging.Circuit_aging.default_config ~t_standby:400.0 () in
        List.map
          (fun margin ->
            let outcome =
              Aging.Lifetime.solve aging net ~node_sp:sp ~standby ~margin ()
            in
            let cell =
              match outcome with
              | `Lifetime t -> Printf.sprintf "%.2f years" (t /. Physics.Units.year)
              | `Never_fails -> "> 30 years"
              | `Fails_immediately -> "< 1 hour"
            in
            [ label; Flow.Report.cell_pct margin; cell ])
          [ 0.02; 0.03; 0.04; 0.05 ])
      [
        ("worst-case standby", Aging.Circuit_aging.Standby_all_stressed);
        ("power-gated standby", Aging.Circuit_aging.Standby_all_relaxed);
      ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 6 - guardband-to-lifetime solving on c432 (hot 400K standby):\n\
         how long each timing margin lasts, and what standby relief buys";
      header = [ "standby policy"; "margin[%]"; "lifetime" ];
      rows;
    }

(* --- ext7: thermal grid --- *)

let thermal_grid () =
  let g = Thermal.Grid.create () in
  let n = Thermal.Grid.n_blocks g in
  let cond = Nbti.Vth_shift.nominal_pmos tech in
  (* A hot datapath corner amid quieter blocks. *)
  let powers = Array.make n 3.0 in
  powers.(0) <- 45.0;
  powers.(1) <- 20.0;
  powers.(4) <- 20.0;
  let state = Thermal.Grid.steady_state g ~powers in
  let rows =
    List.map
      (fun (row, col) ->
        let t_active = Thermal.Grid.block_temp g state ~row ~col in
        let sched =
          Nbti.Schedule.active_standby ~ras:(1.0, 9.0) ~t_active ~t_standby:330.0
            ~active_duty:0.5 ~standby_duty:1.0 ()
        in
        let dv = Nbti.Vth_shift.dvth params tech cond ~schedule:sched ~time:ten_years in
        [
          Printf.sprintf "(%d,%d)" row col;
          Printf.sprintf "%.1f" powers.((row * 4) + col);
          Printf.sprintf "%.1f" t_active;
          Flow.Report.cell_mv dv;
          Flow.Report.cell_pct (Nbti.Degradation.factor tech ~dvth:dv);
        ])
      [ (0, 0); (0, 1); (1, 1); (2, 2); (3, 3) ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 7 - multi-node thermal grid (HotSpot-style [28]): a hot block\n\
         ages measurably faster than its neighbours, so block-level\n\
         (T_active, RAS) pairs matter - the spatial refinement of Fig. 2";
      header = [ "block"; "power[W]"; "T_active[K]"; "dVth 10y[mV]"; "gate deg[%]" ];
      rows;
    }


(* --- ext8: SRAM read stability and bit flipping (Kumar [21]) --- *)

let sram () =
  let cell = Sram.Cell6t.make () in
  let schedule =
    Nbti.Schedule.active_standby ~ras:(1.0, 1.0) ~t_active:400.0 ~t_standby:330.0
      ~active_duty:0.5 ~standby_duty:1.0 ()
  in
  let fresh =
    Sram.Cell6t.static_noise_margin cell ~dvth_left:0.0 ~dvth_right:0.0 ~temp_k:400.0 ~mode:`Read
  in
  let rows =
    List.concat_map
      (fun years ->
        let time = Physics.Units.years years in
        List.map
          (fun (label, f) ->
            let s = Sram.Cell6t.snm_after params cell ~schedule ~time ~store_one_fraction:f ~mode:`Read in
            [
              Printf.sprintf "%.0f" years;
              label;
              Flow.Report.cell_mv s.Sram.Cell6t.left_lobe;
              Flow.Report.cell_mv s.Sram.Cell6t.right_lobe;
              Flow.Report.cell_mv s.Sram.Cell6t.snm;
              Flow.Report.cell_pct (1.0 -. (s.Sram.Cell6t.snm /. fresh.Sram.Cell6t.snm));
            ])
          [ ("static 1", 1.0); ("flip 50/50", 0.5) ])
      [ 1.0; 3.0; 10.0 ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        Printf.sprintf
          "Ext. 8 - 6T SRAM read SNM under NBTI (Kumar [21]; fresh read SNM\n\
           %.1f mV): static storage stresses one pull-up permanently and skews\n\
           the butterfly; periodic bit flipping turns it into a 50%% AC pattern,\n\
           equalizing the lobes and recovering about half the margin loss"
          (fresh.Sram.Cell6t.snm *. 1e3);
      header = [ "years"; "storage"; "left[mV]"; "right[mV]"; "SNM[mV]"; "loss[%]" ];
      rows;
    };
  Format.printf "  10-year recovery from flipping: %s %% of the static loss@.@."
    (Flow.Report.cell_pct
       (Sram.Cell6t.recovery_from_flipping params cell ~schedule ~time:ten_years ~mode:`Read))

(* --- ext9: electrothermal operating point feeding the aging model --- *)

let electrothermal () =
  let net, sp = prep "c432" in
  let input_sp = Logic.Signal_prob.uniform_inputs net 0.5 in
  let act =
    Logic.Activity.monte_carlo net ~rng:(Physics.Rng.create ~seed:9) ~input_sp ~n_pairs:8192
  in
  let model = Thermal.Rc_model.default in
  let rows =
    List.map
      (fun freq ->
        let op =
          Power.operating_point tech model net ~node_sp:sp ~activity:act ~freq ~n_blocks:1.5e6
        in
        (* The self-consistent junction temperature becomes T_active. *)
        let aging = Aging.Circuit_aging.default_config ~t_active:op.Power.temp_k () in
        let a =
          Aging.Circuit_aging.analyze aging net ~node_sp:sp
            ~standby:Aging.Circuit_aging.Standby_all_stressed ()
        in
        [
          Printf.sprintf "%.1f" (freq /. 1e9);
          Flow.Report.cell_si ~unit:"W" op.Power.per_block.Power.dynamic;
          Flow.Report.cell_si ~unit:"W" op.Power.per_block.Power.leakage;
          Printf.sprintf "%.0f" op.Power.chip_power;
          Printf.sprintf "%.1f" op.Power.temp_k;
          Flow.Report.cell_pct a.Aging.Circuit_aging.degradation;
        ])
      [ 0.5e9; 1.0e9; 2.0e9; 3.0e9 ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 9 - closing the loop the paper leaves open: circuit activity ->\n\
         power -> self-consistent junction temperature -> T_active for the NBTI\n\
         schedule (c432 block replicated 1.5M times on the air-cooled package;\n\
         higher clocks run hotter and age faster)";
      header =
        [ "freq[GHz]"; "dyn/block"; "leak/block"; "chip[W]"; "T_op[K]"; "10y deg[%]" ];
      rows;
    }

(* --- ext10: sequential circuits --- *)

let sequential () =
  let designs =
    [
      ("s27 (exact)", Sequential.s27 (), Array.make 4 0.5);
      ("counter8", Sequential.counter ~bits:8, [| 0.5 |]);
      ("counter16", Sequential.counter ~bits:16, [| 0.5 |]);
      ("lfsr16", Sequential.lfsr ~bits:16, [||]);
      ( "s-rand (10pi/16ff/200g)",
        Sequential.random_profile ~name:"srand" ~n_pi:10 ~n_ff:16 ~n_gates:200 ~seed:298,
        Array.make 10 0.5 );
    ]
  in
  let rows =
    List.map
      (fun (name, s, input_sp) ->
        let sp, sweeps = Sequential.steady_state_sp s ~input_sp () in
        let aging = Aging.Circuit_aging.default_config () in
        let a =
          Aging.Circuit_aging.analyze aging s.Sequential.comb ~node_sp:sp
            ~standby:Aging.Circuit_aging.Standby_all_stressed ()
        in
        let b =
          Aging.Circuit_aging.analyze aging s.Sequential.comb ~node_sp:sp
            ~standby:Aging.Circuit_aging.Standby_all_relaxed ()
        in
        [
          name;
          string_of_int (Sequential.n_flops s);
          string_of_int (Circuit.Netlist.n_gates s.Sequential.comb);
          string_of_int sweeps;
          Flow.Report.cell_ps a.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay;
          Flow.Report.cell_pct a.Aging.Circuit_aging.degradation;
          Flow.Report.cell_pct b.Aging.Circuit_aging.degradation;
        ])
      designs
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 10 - sequential designs through the platform: flip-flop Q/D pins\n\
         become pseudo-PI/PO of the combinational core, state-bit signal\n\
         probabilities are solved as a fixed point, and the standard analysis\n\
         applies (worst vs scan-loaded relaxed standby, RAS 1:9, 10 years)";
      header =
        [ "design"; "flops"; "gates"; "SP sweeps"; "fresh[ps]"; "worst deg[%]"; "gated deg[%]" ];
      rows;
    }


(* --- ext11: high-k scenario - PBTI and the permanent component --- *)

let high_k () =
  let net, sp = prep "c432" in
  let scenarios =
    [
      ("90nm SiON (paper)", Aging.Circuit_aging.default_config ~t_standby:400.0 ());
      ( "+ PBTI (NMOS, 0.5x)",
        Aging.Circuit_aging.default_config ~t_standby:400.0 ~pbti_scale:0.5 () );
      ( "+ 20% permanent",
        Aging.Circuit_aging.default_config ~t_standby:400.0 ~params:Nbti.Rd_model.high_k_params () );
      ( "high-k: both",
        Aging.Circuit_aging.default_config ~t_standby:400.0 ~params:Nbti.Rd_model.high_k_params
          ~pbti_scale:0.5 () );
    ]
  in
  let rows =
    List.map
      (fun (label, cfg) ->
        let d standby =
          (Aging.Circuit_aging.analyze cfg net ~node_sp:sp ~standby ()).Aging.Circuit_aging
            .degradation
        in
        let worst = d Aging.Circuit_aging.Standby_all_stressed in
        let best = d Aging.Circuit_aging.Standby_all_relaxed in
        [
          label;
          Flow.Report.cell_pct worst;
          Flow.Report.cell_pct best;
          Flow.Report.cell_pct ((worst -. best) /. worst);
        ])
      scenarios
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 11 - the high-k scenario the paper's discussion anticipates\n\
         (c432, hot 400K standby, 10 years): PBTI makes the all-1 'relaxed'\n\
         state age the NMOS devices, and a 20% permanent trap share survives\n\
         every relaxation phase - both erode the internal-node-control\n\
         potential that standby techniques rely on";
      header = [ "model"; "worst deg[%]"; "all-1 state deg[%]"; "potential[%]" ];
      rows;
    }


(* --- ext12: SSTA vs Monte-Carlo (the [51] statistical platform) --- *)

let ssta () =
  let rows =
    List.concat_map
      (fun name ->
        let net, sp = prep name in
        let aging = Aging.Circuit_aging.default_config ~t_standby:400.0 () in
        let standby = Aging.Circuit_aging.Standby_all_stressed in
        let fresh = Variation.Ssta.analyze aging net ~sigma_vth:0.015 ~node_sp:sp ~standby ~aged:false in
        let aged = Variation.Ssta.analyze aging net ~sigma_vth:0.015 ~node_sp:sp ~standby ~aged:true in
        let mc_cfg = Variation.Process_var.default_config ~n_samples:300 aging in
        let mc =
          Variation.Process_var.run mc_cfg net ~node_sp:sp ~standby ~rng:(Physics.Rng.create ~seed:2)
        in
        let row label (g : Variation.Ssta.gaussian) (s : Physics.Stats.summary) =
          [
            name;
            label;
            Flow.Report.cell_ps g.Variation.Ssta.mean;
            Flow.Report.cell_ps s.Physics.Stats.mean;
            Flow.Report.cell_ps (Variation.Ssta.sigma g);
            Flow.Report.cell_ps s.Physics.Stats.stddev;
          ]
        in
        [
          row "fresh" fresh.Variation.Ssta.circuit mc.Variation.Process_var.fresh;
          row "aged 10y" aged.Variation.Ssta.circuit mc.Variation.Process_var.aged;
        ])
      [ "c432"; "c880" ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ext. 12 - analytic SSTA (Clark's max, V_th0 sensitivities through the\n\
         temperature-aware aging model) vs 300-sample Monte-Carlo: the mean\n\
         shift and the variance compensation of Fig. 12 fall out in one\n\
         deterministic pass";
      header = [ "circuit"; "view"; "SSTA mean[ps]"; "MC mean[ps]"; "SSTA sd[ps]"; "MC sd[ps]" ];
      rows;
    }

let all : (string * string * (unit -> unit)) list =
  [
    ("ext1", "alternating IVC (MLV rotation)", rotation);
    ("ext2", "control point insertion vs potential", control_points);
    ("ext3", "dual-Vth assignment", dual_vth);
    ("ext4", "NBTI-aware gate sizing", gate_sizing);
    ("ext5", "technology scaling", scaling);
    ("ext6", "guardband-to-lifetime solving", lifetime);
    ("ext7", "thermal grid block aging", thermal_grid);
    ("ext8", "SRAM read stability + bit flipping", sram);
    ("ext9", "electrothermal operating point", electrothermal);
    ("ext10", "sequential circuits", sequential);
    ("ext11", "high-k: PBTI + permanent component", high_k);
    ("ext12", "SSTA vs Monte-Carlo", ssta);
  ]
