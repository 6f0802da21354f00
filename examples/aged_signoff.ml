(* An aging-aware signoff hand-off, end to end.

   A physical-design flow consumes three artifacts this library produces:
   the gate-level structural Verilog of the block, a fresh Liberty view,
   and an AGED Liberty view with the mission profile's end-of-life
   threshold shift folded into every arc. This example generates all
   three for a block, then cross-checks the library-level derate against
   the circuit-level analyses at three fidelities: worst-slope STA,
   slope-resolved STA, and analytic SSTA with process variation.

   Run with: dune exec examples/aged_signoff.exe *)

let () =
  let tech = Device.Tech.ptm_90nm in
  let params = Nbti.Rd_model.default_params in
  let net = Circuit.Generators.by_name "c880" in
  let mission =
    Nbti.Schedule.active_standby ~ras:(1.0, 9.0) ~t_active:400.0 ~t_standby:330.0
      ~active_duty:0.5 ~standby_duty:1.0 ()
  in
  let years = 10.0 in
  let time = Physics.Units.years years in

  (* 1. The hand-off artifacts. *)
  let dir = Filename.temp_file "nbti_signoff" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let vpath = Filename.concat dir (net.Circuit.Netlist.name ^ ".v") in
  Circuit.Verilog.write_file net ~path:vpath;
  let fresh_chars = Cell.Characterize.library_characterization tech () in
  let fresh_lib = Filename.concat dir "ptm90_fresh.lib" in
  Cell.Liberty.write_file tech fresh_chars ~path:fresh_lib;
  let aged_lib = Filename.concat dir "ptm90_aged.lib" in
  let aged_text = Cell.Liberty.aged_library params tech ~schedule:mission ~time in
  let oc = open_out aged_lib in
  output_string oc aged_text;
  close_out oc;
  (* Names relative to the fresh temporary directory, so the output is
     the same on every run. *)
  Format.printf "wrote %s (%d gates as structural Verilog) in a temporary directory@."
    (Filename.basename vpath) (Circuit.Netlist.n_gates net);
  Format.printf "wrote %s and %s@.@." (Filename.basename fresh_lib) (Filename.basename aged_lib);

  (* 2. The library-level derate: one conservative number per cell. *)
  let shift = Cell.Characterize.aged_shift params tech ~schedule:mission ~time in
  Format.printf "mission-profile worst-case dVth: %.1f mV@." (shift *. 1e3);
  let rows =
    List.filter_map
      (fun cell ->
        if List.mem cell.Cell.Stdcell.name [ "INV"; "NAND2"; "NOR2"; "XOR2"; "AOI21" ] then begin
          let fresh = Cell.Characterize.characterize tech cell () in
          let aged = Cell.Characterize.characterize tech cell ~dvth:shift () in
          Some
            [
              cell.Cell.Stdcell.name;
              Flow.Report.cell_ps fresh.Cell.Characterize.delays.(2);
              Flow.Report.cell_ps aged.Cell.Characterize.delays.(2);
              Flow.Report.cell_pct (Cell.Characterize.derate ~fresh ~aged);
            ]
        end
        else None)
      Cell.Stdcell.library
  in
  Flow.Report.print
    {
      Flow.Report.title = "library derates at the mid load point";
      header = [ "cell"; "fresh[ps]"; "aged[ps]"; "derate[%]" ];
      rows;
    };

  (* 3. Circuit-level truth at three fidelities. *)
  let sp = Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5) in
  let aging = Aging.Circuit_aging.default_config ~ras:(1.0, 9.0) ~t_standby:330.0 ~time () in
  let standby = Aging.Circuit_aging.Standby_all_stressed in
  let stage_dvth = Aging.Circuit_aging.stage_dvth_map aging net ~node_sp:sp ~standby in
  let worst_slope =
    (Aging.Circuit_aging.analyze aging net ~node_sp:sp ~standby ()).Aging.Circuit_aging.degradation
  in
  let resolved =
    let fresh =
      Compiled.Timing.analyze_slopes tech net ~temp_k:400.0 ~stage_dvth:Compiled.Timing.no_aging ()
    in
    let aged = Compiled.Timing.analyze_slopes tech net ~temp_k:400.0 ~stage_dvth () in
    Compiled.Timing.slope_degradation ~fresh ~aged
  in
  let ssta_fresh = Variation.Ssta.analyze aging net ~sigma_vth:0.015 ~node_sp:sp ~standby ~aged:false in
  let ssta_aged = Variation.Ssta.analyze aging net ~sigma_vth:0.015 ~node_sp:sp ~standby ~aged:true in
  let corner g = g.Variation.Ssta.mean +. (3.0 *. Variation.Ssta.sigma g) in
  Format.printf "@.circuit-level %g-year views of %s:@." years net.Circuit.Netlist.name;
  Format.printf "  library-derate bound (every PMOS at %.1f mV): %.2f %%@." (shift *. 1e3)
    (100.0 *. Nbti.Degradation.factor tech ~dvth:shift);
  Format.printf "  worst-slope STA, per-gate duties:             %.2f %%@." (100.0 *. worst_slope);
  Format.printf "  slope-resolved STA:                           %.2f %%@." (100.0 *. resolved);
  Format.printf "  SSTA aged +3sigma corner vs fresh mean:       %.2f %%@."
    (100.0 *. ((corner ssta_aged.Variation.Ssta.circuit /. ssta_fresh.Variation.Ssta.circuit.Variation.Ssta.mean) -. 1.0));
  Format.printf
    "@.each refinement hands margin back: the aged-lib bound is safe for any\n\
     workload, the duty-aware STA knows how this block actually idles, the\n\
     slope pass drops the falling-edge pessimism, and SSTA prices variation.@."
