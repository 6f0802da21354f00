(* Timing guardbands across a benchmark suite, with and without variation.

   The design question behind the paper: how much timing margin must a
   signoff flow reserve for ten years of NBTI? This example computes the
   guardband for every benchmark in the suite under the temperature-aware
   model, shows how much the constant-temperature assumption would
   inflate it, and finishes with the variation-aware view (Fig. 12):
   the margin must cover the aged +3-sigma corner, not just the mean.

   Run with: dune exec examples/aging_guardband.exe *)

let () =
  let suite = [ "c17"; "c432"; "c499"; "c880"; "c1355"; "c1908" ] in
  let aging = Aging.Circuit_aging.default_config ~ras:(1.0, 9.0) ~t_standby:330.0 () in

  let rows =
    List.map
      (fun name ->
        let net = Circuit.Generators.by_name name in
        let sp =
          Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5)
        in
        let analyze config standby =
          Aging.Circuit_aging.analyze config net ~node_sp:sp ~standby ()
        in
        let worst = analyze aging Aging.Circuit_aging.Standby_all_stressed in
        let pessimistic =
          analyze (Aging.Circuit_aging.worst_case_config aging)
            Aging.Circuit_aging.Standby_all_stressed
        in
        let gated = analyze aging Aging.Circuit_aging.Standby_all_relaxed in
        [
          name;
          Flow.Report.cell_ps worst.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay;
          Flow.Report.cell_pct worst.Aging.Circuit_aging.degradation;
          Flow.Report.cell_pct pessimistic.Aging.Circuit_aging.degradation;
          Flow.Report.cell_pct gated.Aging.Circuit_aging.degradation;
        ])
      suite
  in
  Flow.Report.print
    {
      Flow.Report.title =
        "ten-year NBTI guardbands (RAS 1:9, 400K active / 330K standby):\n\
         temperature-aware vs constant-400K signoff, and with power gating";
      header = [ "circuit"; "fresh[ps]"; "guardband[%]"; "const-T[%]"; "gated[%]" ];
      rows;
    };

  (* The variation-aware margin on one representative circuit. *)
  let net = Circuit.Generators.by_name "c880" in
  let sp = Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5) in
  let config = Variation.Process_var.default_config ~n_samples:300 aging in
  let study =
    Variation.Process_var.run config net ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed ~rng:(Physics.Rng.create ~seed:88)
  in
  let fresh = study.Variation.Process_var.fresh and aged = study.Variation.Process_var.aged in
  let _, fresh_hi = study.Variation.Process_var.fresh_3sigma in
  let _, aged_hi = study.Variation.Process_var.aged_3sigma in
  Format.printf "c880 with 15 mV per-gate Vth sigma (300 Monte-Carlo samples):@.";
  Format.printf "  fresh: mean %.1f ps, +3sigma corner %.1f ps@." (fresh.Physics.Stats.mean *. 1e12)
    (fresh_hi *. 1e12);
  Format.printf "  aged:  mean %.1f ps, +3sigma corner %.1f ps@." (aged.Physics.Stats.mean *. 1e12)
    (aged_hi *. 1e12);
  Format.printf "  variation-aware guardband (aged +3sigma over fresh mean): %.2f %%@."
    (100.0 *. ((aged_hi /. fresh.Physics.Stats.mean) -. 1.0));
  Format.printf "  aging dominates variation (aged -3sigma above fresh +3sigma): %b@."
    (Variation.Process_var.crossover study)
