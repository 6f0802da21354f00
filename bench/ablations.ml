(* Ablation benches for the design choices DESIGN.md calls out. *)

let tech = Device.Tech.ptm_90nm
let params = Nbti.Rd_model.default_params
let ten_years = Physics.Units.ten_years

(* 1. Temperature-aware vs worst-case-temperature NBTI (the paper's core
   claim): how pessimistic is the prior-work assumption? *)
let temperature_awareness () =
  let rows =
    List.map
      (fun name ->
        let aging = Aging.Circuit_aging.default_config () in
        let net = Circuit.Generators.by_name name in
        let sp = Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5) in
        let degradation config =
          (Aging.Circuit_aging.analyze config net ~node_sp:sp
             ~standby:Aging.Circuit_aging.Standby_all_stressed ())
            .Aging.Circuit_aging.degradation
        in
        let aware = degradation aging in
        let pessimistic = degradation (Aging.Circuit_aging.worst_case_config aging) in
        [
          name;
          Flow.Report.cell_pct aware;
          Flow.Report.cell_pct pessimistic;
          Printf.sprintf "%.2fx" (pessimistic /. aware);
        ])
      [ "c17"; "c432"; "c499"; "c880" ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ablation 1 - temperature-aware vs worst-case-temperature degradation\n\
         (RAS 1:9, T_standby=330K, worst-case standby state). The prior-work\n\
         constant-400K assumption [6,8,19,20] nearly doubles the estimate";
      header = [ "circuit"; "temp-aware[%]"; "worst-case-T[%]"; "pessimism" ];
      rows;
    }

(* 2. Closed-form S_n vs the exact eq. 10 recursion: accuracy and speed of
   the approximation the sweeps rely on. *)
let closed_form () =
  let rows =
    List.concat_map
      (fun c ->
        List.map
          (fun n ->
            let exact = Nbti.Ac_stress.s_n_exact ~c ~n in
            let closed = Nbti.Ac_stress.s_n ~c ~n:(float_of_int n) in
            let t0 = Sys.time () in
            let iters = 200 in
            for _ = 1 to iters do
              ignore (Nbti.Ac_stress.s_n_exact ~c ~n)
            done;
            let exact_t = (Sys.time () -. t0) /. float_of_int iters in
            [
              Printf.sprintf "%.2f" c;
              string_of_int n;
              Printf.sprintf "%.6f" exact;
              Printf.sprintf "%.6f" closed;
              Printf.sprintf "%.3f" (Float.abs (closed -. exact) /. exact *. 100.0);
              Printf.sprintf "%.1f" (exact_t *. 1e6);
            ])
          [ 100; 10_000; 300_000 ])
      [ 0.1; 0.5; 0.95 ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ablation 2 - closed-form S_n vs the exact eq. 10 recursion.\n\
         At the ~3e5 cycles of a 10-year analysis the error is <0.1% while the\n\
         recursion costs O(n); the closed form is O(1)";
      header = [ "duty c"; "cycles n"; "S_n exact"; "S_n closed"; "err[%]"; "recursion[us]" ];
      rows;
    }

(* 3. Analytic SP propagation vs Monte-Carlo simulation: effect of
   reconvergent-fanout correlations on the degradation estimate. *)
let sp_estimators () =
  let rows =
    List.map
      (fun name ->
        let net = Circuit.Generators.by_name name in
        let input_sp = Logic.Signal_prob.uniform_inputs net 0.5 in
        let analytic = Logic.Signal_prob.analytic net ~input_sp in
        let mc =
          Logic.Signal_prob.monte_carlo net ~rng:(Physics.Rng.create ~seed:3) ~input_sp
            ~n_vectors:8192
        in
        let max_gap = ref 0.0 and sum_gap = ref 0.0 in
        Array.iteri
          (fun i a ->
            let g = Float.abs (a -. mc.(i)) in
            max_gap := Float.max !max_gap g;
            sum_gap := !sum_gap +. g)
          analytic;
        let aging = Aging.Circuit_aging.default_config () in
        let deg sp =
          (Aging.Circuit_aging.analyze aging net ~node_sp:sp
             ~standby:Aging.Circuit_aging.Standby_all_stressed ())
            .Aging.Circuit_aging.degradation
        in
        [
          name;
          Printf.sprintf "%.4f" (!sum_gap /. float_of_int (Array.length analytic));
          Printf.sprintf "%.4f" !max_gap;
          Flow.Report.cell_pct (deg analytic);
          Flow.Report.cell_pct (deg mc);
        ])
      [ "c17"; "c432"; "c499"; "c880" ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ablation 3 - analytic (independence) vs Monte-Carlo signal probabilities.\n\
         Reconvergent fanout perturbs individual net SPs, but the worst-case\n\
         degradation estimate is nearly estimator-independent";
      header = [ "circuit"; "mean |dSP|"; "max |dSP|"; "deg(analytic)[%]"; "deg(MC)[%]" ];
      rows;
    }

(* 4. MLV search strategies: optimality and cost. *)
let mlv_strategies () =
  let rows =
    List.concat_map
      (fun name ->
        let net = Circuit.Generators.by_name name in
        let tables = Leakage.Circuit_leakage.build_tables tech net ~temp_k:400.0 in
        let budget = 1024 in
        let random =
          Ivc.Mlv.random_search tables net ~rng:(Physics.Rng.create ~seed:4) ~n:budget
        in
        let prob_set, stats =
          Ivc.Mlv.probability_based tables net ~rng:(Physics.Rng.create ~seed:4) ~pool:64
            ~max_rounds:(budget / 64) ()
        in
        let prob = List.hd prob_set in
        let base =
          [
            [
              name; "random"; string_of_int budget;
              Flow.Report.cell_si ~unit:"A" random.Ivc.Mlv.leakage; "-";
            ];
            [
              name; "probability (Fig. 7)"; string_of_int stats.Ivc.Mlv.evaluations;
              Flow.Report.cell_si ~unit:"A" prob.Ivc.Mlv.leakage;
              (if stats.Ivc.Mlv.converged then "yes" else "no");
            ];
          ]
        in
        if Circuit.Netlist.n_primary_inputs net <= 20 then begin
          let opt = Ivc.Mlv.exhaustive tables net in
          base
          @ [
              [
                name; "exhaustive";
                string_of_int (1 lsl Circuit.Netlist.n_primary_inputs net);
                Flow.Report.cell_si ~unit:"A" opt.Ivc.Mlv.leakage; "-";
              ];
            ]
        end
        else base)
      [ "c17"; "c432"; "c880" ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ablation 4 - MLV search strategies at matched evaluation budgets.\n\
         The probability-based search reaches random-search leakage with far\n\
         fewer evaluations and converges its input probabilities";
      header = [ "circuit"; "strategy"; "evaluations"; "leakage"; "converged" ];
      rows;
    }

(* 5. Cycle-period sensitivity: the long-run dVth must be nearly
   independent of the assumed mode-switching period (DESIGN.md's choice of
   1000 s is not load-bearing). *)
let period_sensitivity () =
  let cond = Nbti.Vth_shift.nominal_pmos tech in
  let rows =
    List.map
      (fun period ->
        let s =
          Nbti.Schedule.active_standby ~period ~ras:(1.0, 9.0) ~t_active:400.0 ~t_standby:330.0
            ~active_duty:0.5 ~standby_duty:1.0 ()
        in
        let dv = Nbti.Vth_shift.dvth params tech cond ~schedule:s ~time:ten_years in
        [ Printf.sprintf "%.0e" period; Flow.Report.cell_mv dv ])
      [ 10.0; 100.0; 1000.0; 10_000.0; 100_000.0 ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ablation 5 - sensitivity of the 10-year dVth to the assumed\n\
         active/standby switching period (worst case, RAS 1:9, 330K)";
      header = [ "period[s]"; "dVth[mV]" ];
      rows;
    }


(* 6. Worst-slope vs slope-resolved timing: NBTI only slows rising
   transitions, so timing every stage at max(rise, fall) overstates the
   aged delay whenever the critical path ends on a falling edge. *)
let slope_resolution () =
  let rows =
    List.map
      (fun name ->
        let net = Circuit.Generators.by_name name in
        let sp = Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5) in
        let aging = Aging.Circuit_aging.default_config ~t_standby:400.0 () in
        let standby = Aging.Circuit_aging.Standby_all_stressed in
        let stage_dvth = Aging.Circuit_aging.stage_dvth_map aging net ~node_sp:sp ~standby in
        let temp_k = 400.0 in
        let worst_slope =
          let r = Aging.Circuit_aging.analyze aging net ~node_sp:sp ~standby () in
          r.Aging.Circuit_aging.degradation
        in
        let resolved =
          let fresh =
            Compiled.Timing.analyze_slopes tech net ~temp_k ~stage_dvth:Compiled.Timing.no_aging ()
          in
          let aged = Compiled.Timing.analyze_slopes tech net ~temp_k ~stage_dvth () in
          Compiled.Timing.slope_degradation ~fresh ~aged
        in
        [
          name;
          Flow.Report.cell_pct worst_slope;
          Flow.Report.cell_pct resolved;
          Printf.sprintf "%.2fx" (worst_slope /. Float.max 1e-9 resolved);
        ])
      [ "c17"; "c432"; "c499"; "c880" ]
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "Ablation 6 - worst-slope (the paper's, and our default) vs\n\
         slope-resolved timing under NBTI-only aging (worst case @400K):\n\
         separating rise/fall arrivals exposes how much of the guardband\n\
         protects falling-edge paths NBTI cannot slow";
      header = [ "circuit"; "worst-slope deg[%]"; "slope-resolved deg[%]"; "conservatism" ];
      rows;
    }

let all : (string * string * (unit -> unit)) list =
  [
    ("ablation1", "temperature-aware vs worst-case-T", temperature_awareness);
    ("ablation2", "closed-form S_n vs recursion", closed_form);
    ("ablation3", "analytic vs Monte-Carlo SPs", sp_estimators);
    ("ablation4", "MLV search strategies", mlv_strategies);
    ("ablation5", "switching-period sensitivity", period_sensitivity);
    ("ablation6", "worst-slope vs slope-resolved timing", slope_resolution);
  ]
