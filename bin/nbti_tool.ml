(* nbti_tool: command-line front end to the NBTI/leakage platform.

   Subcommands mirror the Fig. 6 flow: load or generate a netlist, derive
   signal probabilities, analyze fresh/aged timing and leakage, and run the
   two standby optimizations (IVC, sleep transistor insertion). *)

open Cmdliner

(* --- shared arguments --- *)

let netlist_conv =
  let parse s =
    if Sys.file_exists s then
      try Ok (Circuit.Bench_io.parse_file s) with Failure m -> Error (`Msg m)
    else begin
      try Ok (Circuit.Generators.by_name s)
      with Not_found ->
        Error (`Msg (Printf.sprintf "%s: neither a .bench file nor a known benchmark name" s))
    end
  in
  Arg.conv (parse, fun fmt t -> Format.fprintf fmt "%s" t.Circuit.Netlist.name)

let netlist_doc = "Circuit: an ISCAS85 benchmark name (c17, c432, ... c7552) or a .bench file path."
let netlist_arg = Arg.(required & pos 0 (some netlist_conv) None & info [] ~docv:"CIRCUIT" ~doc:netlist_doc)

(* The CIRCUIT of a subcommand that times it: a netlist with nothing to
   time is as unusable as an unreadable one (exit 124). *)
let timed_netlist_arg =
  let parse s =
    Result.bind (Arg.conv_parser netlist_conv s) (fun net ->
        match Circuit.Netlist.timing_problem net with
        | None -> Ok net
        | Some reason -> Error (`Msg (Printf.sprintf "%s: %s" s reason)))
  in
  let timed = Arg.conv (parse, Arg.conv_printer netlist_conv) in
  Arg.(required & pos 0 (some timed) None & info [] ~docv:"CIRCUIT" ~doc:netlist_doc)

(* --- request fields as flags: name, default, domain and doc are the
   wire's, from Server.Request_fields --- *)

module F = Server.Request_fields
module P = Server.Protocol

(* A flag's text as the JSON its field decodes; a pair is written A:S. *)
let rec flag_json : type a. a F.kind -> string -> Server.Json.t =
 fun kind s ->
  let number parse make = match parse s with Some x -> make x | None -> Server.Json.String s in
  match (kind, String.split_on_char ':' s) with
  | F.Pair (ka, kb), [ a; b ] -> Server.Json.List [ flag_json ka a; flag_json kb b ]
  | F.Optional k, _ -> flag_json k s
  | F.Float _, _ -> number float_of_string_opt (fun x -> Server.Json.Float x)
  | F.Int _, _ -> number int_of_string_opt (fun n -> Server.Json.Int n)
  | _ -> Server.Json.String s

let rec flag_text = function
  | Server.Json.List [ a; b ] -> flag_text a ^ ":" ^ flag_text b
  | Server.Json.String s -> s
  | Server.Json.Float x -> Printf.sprintf "%g" x
  | Server.Json.Null -> "unset"
  | json -> Server.Json.to_string json

let error_text { F.field; message; _ } = field ^ " " ^ message

(* The flag that sets [f]; a value outside its domain is a usage error
   (exit 124) naming the flag. *)
let field (f : 'a F.t) =
  let parse s =
    try Ok (F.read f (flag_json f.F.kind s)) with F.Error e -> Error (`Msg (error_text e))
  in
  let print ppf v = Format.pp_print_string ppf (flag_text (F.write f.F.kind v)) in
  let name = String.map (function '_' -> '-' | c -> c) f.F.name in
  Arg.(
    value & opt (conv (parse, print)) f.F.default
    & info [ name ] ~docv:(String.uppercase_ascii f.F.name) ~doc:f.F.doc)

let schedule_arg =
  Term.(
    const (fun ras t_active t_standby -> { P.default_flow_spec with ras; t_active; t_standby })
    $ field F.ras $ field F.t_active $ field F.t_standby)

let flow_arg =
  Term.(const (fun flow years -> { flow with P.years }) $ schedule_arg $ field F.years)

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let jobs_arg =
  let doc =
    "Worker domains for the parallel hot paths; 0 picks the machine's recommended count. Results \
     are bit-identical for any value, including 1."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "NBTI_JOBS") ~doc)

let apply_jobs n =
  if n < 0 then begin
    prerr_endline "jobs must be >= 0";
    exit 1
  end
  else if n > 0 then Parallel.Pool.configure_default ~domains:n

(* --- observability: --trace / --log-level / --log-json --- *)

let log_level_arg =
  let doc = "Log verbosity: debug, info, warn, error or quiet." in
  Arg.(value & opt string "warn" & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_json_arg =
  Arg.(value & flag & info [ "log-json" ] ~doc:"Emit log records as JSONL instead of text.")

let trace_arg =
  let doc =
    "Record the run as Chrome trace_event JSON to $(docv) (open in chrome://tracing or Perfetto; \
     summarize with 'nbti_tool trace $(docv)'). A flame summary is printed to stderr."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let net_name (n : Circuit.Netlist.t) = n.Circuit.Netlist.name

let apply_logging level json =
  (match Obs.Log.level_of_string level with
  | Ok l -> Obs.Log.set_level l
  | Error m ->
    prerr_endline m;
    exit 2);
  Obs.Log.set_json json

(* Wraps a subcommand body: installs the log level, a correlation id for
   every span / log record / pool chunk the run produces, and — when
   --trace is given — a span collector whose contents are written out
   (and summarized to stderr) even if the body raises. A traced run also
   originates a distributed-trace context, so spans carry a trace id and
   any server hop the body makes (via Client) joins the same trace. *)
let with_observability ~cid ~level ~json ~trace f =
  apply_logging level json;
  Obs.Ctx.with_id cid @@ fun () ->
  match trace with
  | None -> f ()
  | Some path ->
    let collector = Obs.Trace.create () in
    Obs.Trace.install collector;
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.uninstall ();
        try
          Obs.Trace.write_chrome_json ~process_name:cid collector ~path;
          Format.eprintf "%s@." (Obs.Trace.flame_summary collector);
          Format.eprintf "trace: %d spans written to %s@."
            (List.length (Obs.Trace.spans collector))
            path
        with Sys_error m -> Format.eprintf "trace: cannot write %s: %s@." path m)
      (fun () ->
        Obs.Ctx.with_trace
          { Obs.Ctx.trace_id = Obs.Trace.new_trace_id (); parent_span = None }
          f)

(* --- SLO objectives (--slo, shared by serve and route) --- *)

let slo_spec_arg =
  let doc =
    "Per-op latency objectives, e.g. 'analyze=50ms:99,batch=2s:95': a request slower than its \
     op's threshold (or failing) counts against the target percentage. Multi-window (5m/1h) \
     burn rates surface under stats.slo, as nbti_slo_* metrics, and in 'nbti_tool top'."
  in
  Arg.(value & opt (some string) None & info [ "slo" ] ~docv:"SPEC" ~doc)

let parse_slo ~cmd spec =
  match spec with
  | None -> None
  | Some s -> begin
    match Obs.Slo.parse_spec s with
    | Ok objectives -> Some (Obs.Slo.create objectives)
    | Error m ->
      Format.eprintf "nbti_tool %s: --slo: %s@." cmd m;
      exit 2
  end

let trace_spans_arg =
  let doc =
    "Keep the last $(docv) completed spans in an in-process ring served by the trace_export \
     op (0 disables). This is what lets a fleet router collect this process's spans into a \
     merged trace."
  in
  Arg.(value & opt int 0 & info [ "trace-spans" ] ~docv:"N" ~doc)

(* --- stats --- *)

let stats_cmd =
  let run net =
    Format.printf "%a@." Circuit.Netlist.pp_stats (Circuit.Netlist.stats net);
    let levels = Circuit.Netlist.levels net in
    let fanout = Circuit.Netlist.fanout net in
    let max_fanout = Array.fold_left (fun acc f -> Stdlib.max acc (Array.length f)) 0 fanout in
    Format.printf "max logic level: %d, max fanout: %d@."
      (Array.fold_left Stdlib.max 0 levels)
      max_fanout
  in
  let term = Term.(const run $ netlist_arg) in
  Cmd.v (Cmd.info "stats" ~doc:"Print netlist statistics.") term

(* --- analyze --- *)

let analyze_cmd =
  let run net (flow : P.flow_spec) standby jobs trace level json =
    apply_jobs jobs;
    match P.standby_state net standby with
    | Error m ->
      prerr_endline m;
      exit 1
    | Ok standby ->
      with_observability
        ~cid:("cli:analyze:" ^ net_name net)
        ~level ~json ~trace
      @@ fun () ->
      let cfg = P.platform_config flow in
      let p = Flow.Platform.prepare cfg net in
      let a = Flow.Platform.analyze cfg p ~standby in
      Flow.Report.print
        {
          Flow.Report.title =
            Printf.sprintf "NBTI/leakage analysis of %s (RAS %g:%g, %g/%g K, %g years)"
              net.Circuit.Netlist.name (fst flow.ras) (snd flow.ras) flow.t_active flow.t_standby
              flow.years;
          header = [ "metric"; "value" ];
          rows =
            [
              [ "gates"; string_of_int a.Flow.Platform.stats.Circuit.Netlist.n_gates ];
              [ "fresh delay"; Flow.Report.cell_ps a.Flow.Platform.fresh_delay ^ " ps" ];
              [ "aged delay"; Flow.Report.cell_ps a.Flow.Platform.aged_delay ^ " ps" ];
              [ "degradation"; Flow.Report.cell_pct a.Flow.Platform.degradation ^ " %" ];
              [ "max dVth"; Flow.Report.cell_mv a.Flow.Platform.max_dvth ^ " mV" ];
              [ "standby leakage"; Flow.Report.cell_si ~unit:"A" a.Flow.Platform.standby_leakage ];
              [ "active leakage"; Flow.Report.cell_si ~unit:"A" a.Flow.Platform.active_leakage ];
            ];
        }
  in
  let term =
    Term.(
      const run $ timed_netlist_arg $ flow_arg $ field F.standby $ jobs_arg $ trace_arg $ log_level_arg
      $ log_json_arg)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Fresh vs aged timing and leakage for a standby state.") term

(* --- ivc --- *)

let ivc_cmd =
  let run net flow seed pool jobs trace level json =
    apply_jobs jobs;
    with_observability ~cid:("cli:ivc:" ^ net_name net) ~level ~json ~trace
    @@ fun () ->
    let cfg = P.platform_config flow in
    let p = Flow.Platform.prepare cfg net in
    let result, stats =
      Flow.Platform.optimize_ivc cfg p ~rng:(Physics.Rng.create ~seed) ~pool ()
    in
    Format.printf "MLV search: %d evaluations, %d rounds, converged: %b@." stats.Ivc.Mlv.evaluations
      stats.Ivc.Mlv.rounds stats.Ivc.Mlv.converged;
    Flow.Report.print
      {
        Flow.Report.title =
          Printf.sprintf "IVC co-optimization on %s (best vector first)" net.Circuit.Netlist.name;
        header = [ "vector"; "leakage"; "degradation[%]" ];
        rows =
          List.map
            (fun (c : Ivc.Co_opt.choice) ->
              [
                Flow.Report.vector_string c.Ivc.Co_opt.vector;
                Flow.Report.cell_si ~unit:"A" c.Ivc.Co_opt.leakage;
                Flow.Report.cell_pct c.Ivc.Co_opt.degradation;
              ])
            result.Ivc.Co_opt.all;
      };
    Format.printf "MLV-to-MLV degradation spread: %s %%@."
      (Flow.Report.cell_pct result.Ivc.Co_opt.spread)
  in
  let term =
    Term.(
      const run $ timed_netlist_arg $ flow_arg $ field F.ivc_seed $ field F.pool $ jobs_arg $ trace_arg
      $ log_level_arg $ log_json_arg)
  in
  Cmd.v (Cmd.info "ivc" ~doc:"Search minimum-leakage vectors and co-optimize for NBTI.") term

(* --- st --- *)

let st_cmd =
  let run net flow style beta vth_st =
    let cfg = P.platform_config flow in
    let p = Flow.Platform.prepare cfg net in
    let r = Flow.Platform.optimize_st cfg p ~style ~beta ?vth_st () in
    let no_st =
      Sleep.St_insertion.without_st cfg.Flow.Platform.aging (Flow.Platform.netlist p)
        ~node_sp:(Flow.Platform.node_sp p)
    in
    Flow.Report.print
      {
        Flow.Report.title = Printf.sprintf "Sleep transistor insertion on %s" net.Circuit.Netlist.name;
        header = [ "metric"; "value" ];
        rows =
          [
            [ "fresh delay (no ST)"; Flow.Report.cell_ps r.Sleep.St_insertion.fresh_delay ^ " ps" ];
            [ "fresh delay (with ST)"; Flow.Report.cell_ps r.Sleep.St_insertion.fresh_delay_with_st ^ " ps" ];
            [ "aged delay (with ST)"; Flow.Report.cell_ps r.Sleep.St_insertion.aged_delay_with_st ^ " ps" ];
            [ "ST dVth @ lifetime"; Flow.Report.cell_mv r.Sleep.St_insertion.st_dvth ^ " mV" ];
            [ "ST penalty @ lifetime"; Flow.Report.cell_pct r.Sleep.St_insertion.st_penalty_aged ^ " %" ];
            [ "internal aging"; Flow.Report.cell_pct r.Sleep.St_insertion.internal_degradation ^ " %" ];
            [ "total vs fresh"; Flow.Report.cell_pct r.Sleep.St_insertion.total_degradation ^ " %" ];
            [ "no-ST worst case"; Flow.Report.cell_pct no_st ^ " %" ];
          ];
      }
  in
  let term =
    Term.(
      const run $ timed_netlist_arg $ flow_arg $ field F.style $ field F.beta $ field F.vth_st)
  in
  Cmd.v (Cmd.info "st" ~doc:"Analyze sleep transistor insertion with NBTI-aware sizing.") term

(* --- dvth --- *)

let dvth_cmd =
  let duty_arg =
    Arg.(value & opt float 0.5 & info [ "duty" ] ~docv:"D" ~doc:"Active-mode stress duty (SP of 0).")
  in
  let standby_duty_arg =
    Arg.(value & opt float 1.0 & info [ "standby-duty" ] ~docv:"D" ~doc:"Standby stress duty (1 = input held at 0).")
  in
  let run { P.ras; t_active; t_standby; years; _ } duty standby_duty =
    let tech = Device.Tech.ptm_90nm in
    let params = Nbti.Rd_model.default_params in
    let schedule =
      Nbti.Schedule.active_standby ~ras ~t_active ~t_standby ~active_duty:duty
        ~standby_duty ()
    in
    let cond = Nbti.Vth_shift.nominal_pmos tech in
    let time = Physics.Units.years years in
    let dv = Nbti.Vth_shift.dvth params tech cond ~schedule ~time in
    let eq = Nbti.Schedule.equivalent params schedule in
    Format.printf "schedule: %a@." Nbti.Schedule.pp schedule;
    Format.printf "equivalent duty cycle c_eq = %.4f, tau_eq = %.4g s@." eq.Nbti.Schedule.c_eq
      eq.Nbti.Schedule.tau_eq;
    Format.printf "dVth(%g years) = %s mV -> gate delay degradation %s %%@." years
      (Flow.Report.cell_mv dv)
      (Flow.Report.cell_pct (Nbti.Degradation.factor tech ~dvth:dv))
  in
  let term =
    Term.(
      const run $ flow_arg $ duty_arg $ standby_duty_arg)
  in
  Cmd.v (Cmd.info "dvth" ~doc:"Evaluate the temperature-aware device dVth for a schedule.") term

(* --- lifetime --- *)

let lifetime_cmd =
  let margin_arg =
    Arg.(value & opt float 0.03 & info [ "margin" ] ~docv:"M" ~doc:"Timing guardband as a fraction.")
  in
  let run net flow standby margin =
    match P.standby_state net standby with
    | Error m ->
      prerr_endline m;
      exit 1
    | Ok standby ->
      let aging = (P.platform_config flow).aging in
      let sp =
        Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5)
      in
      (match Aging.Lifetime.solve aging net ~node_sp:sp ~standby ~margin () with
      | `Lifetime t ->
        Format.printf "%s stays within a %s %% guardband for %.2f years@."
          net.Circuit.Netlist.name (Flow.Report.cell_pct margin) (t /. Physics.Units.year)
      | `Never_fails ->
        Format.printf "%s never exceeds a %s %% guardband within 30 years@."
          net.Circuit.Netlist.name (Flow.Report.cell_pct margin)
      | `Fails_immediately ->
        Format.printf "%s exceeds a %s %% guardband within the first hour@."
          net.Circuit.Netlist.name (Flow.Report.cell_pct margin))
  in
  let term =
    Term.(const run $ timed_netlist_arg $ schedule_arg $ field F.standby $ margin_arg)
  in
  Cmd.v
    (Cmd.info "lifetime" ~doc:"Solve how long a timing guardband lasts under NBTI.")
    term

(* --- gen --- *)

let gen_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .bench path.")
  in
  let run net path =
    Circuit.Bench_io.write_file net ~path;
    Format.printf "wrote %s (%d gates) to %s@." net.Circuit.Netlist.name (Circuit.Netlist.n_gates net) path
  in
  let term = Term.(const run $ netlist_arg $ out_arg) in
  Cmd.v (Cmd.info "gen" ~doc:"Write a generated benchmark as a .bench netlist.") term

(* --- lib (Liberty) --- *)

let lib_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .lib path.")
  in
  let aged_arg =
    Arg.(value & flag & info [ "aged" ] ~doc:"Fold the mission profile's worst-case dVth into the delays.")
  in
  let run flow out aged =
    let { Aging.Circuit_aging.params; tech; schedule; time; _ } = (P.platform_config flow).aging in
    let text =
      if aged then Cell.Liberty.aged_library params tech ~schedule ~time
      else Cell.Liberty.to_string tech (Cell.Characterize.library_characterization tech ())
    in
    let oc = open_out out in
    output_string oc text;
    close_out oc;
    Format.printf "wrote %s (%d bytes, %d cells%s)@." out (String.length text)
      (List.length Cell.Stdcell.library)
      (if aged then ", aged view" else "")
  in
  let term =
    Term.(const run $ flow_arg $ out_arg $ aged_arg)
  in
  Cmd.v
    (Cmd.info "lib" ~doc:"Emit the characterized cell library as Liberty (.lib), fresh or aged.")
    term

(* --- verilog --- *)

let verilog_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .v path.")
  in
  let run net out =
    Circuit.Verilog.write_file net ~path:out;
    Format.printf "wrote %s as structural Verilog to %s@." net.Circuit.Netlist.name out
  in
  let term = Term.(const run $ netlist_arg $ out_arg) in
  Cmd.v (Cmd.info "verilog" ~doc:"Write a netlist as gate-level structural Verilog.") term

(* --- seq --- *)

let seq_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"ISCAS89-style .bench with DFF gates.")
  in
  let run path (flow : P.flow_spec) =
    match (try Ok (Sequential.parse_file path) with Failure m -> Error m) with
    | Error m ->
      prerr_endline m;
      exit 1
    | Ok s ->
      Format.printf "%s: %d flops, %d real inputs, %d core gates@." s.Sequential.name
        (Sequential.n_flops s) (Sequential.n_real_inputs s)
        (Circuit.Netlist.n_gates s.Sequential.comb);
      let input_sp = Array.make (Sequential.n_real_inputs s) 0.5 in
      let sp, sweeps = Sequential.steady_state_sp s ~input_sp () in
      Format.printf "state signal probabilities converged in %d sweeps@." sweeps;
      let aging = (P.platform_config flow).aging in
      let a =
        Aging.Circuit_aging.analyze aging s.Sequential.comb ~node_sp:sp
          ~standby:Aging.Circuit_aging.Standby_all_stressed ()
      in
      Format.printf "core: fresh %s ps, %g-year worst-case degradation %s %%@."
        (Flow.Report.cell_ps a.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay)
        flow.years
        (Flow.Report.cell_pct a.Aging.Circuit_aging.degradation)
  in
  let term = Term.(const run $ file_arg $ flow_arg) in
  Cmd.v (Cmd.info "seq" ~doc:"Analyze a sequential (DFF) .bench design.") term

(* --- sram --- *)

let sram_cmd =
  let run (flow : P.flow_spec) =
    let cell = Sram.Cell6t.make () in
    let { Aging.Circuit_aging.params; schedule; time; _ } = (P.platform_config flow).aging in
    let fresh =
      Sram.Cell6t.static_noise_margin cell ~dvth_left:0.0 ~dvth_right:0.0 ~temp_k:flow.t_active
        ~mode:`Read
    in
    let static_ = Sram.Cell6t.snm_after params cell ~schedule ~time ~store_one_fraction:1.0 ~mode:`Read in
    let flip = Sram.Cell6t.snm_after params cell ~schedule ~time ~store_one_fraction:0.5 ~mode:`Read in
    Format.printf "6T cell read SNM: fresh %s mV, %g years static %s mV, with bit flipping %s mV@."
      (Flow.Report.cell_mv fresh.Sram.Cell6t.snm) flow.years
      (Flow.Report.cell_mv static_.Sram.Cell6t.snm)
      (Flow.Report.cell_mv flip.Sram.Cell6t.snm);
    Format.printf "flipping recovers %s %% of the SNM loss@."
      (Flow.Report.cell_pct
         (Sram.Cell6t.recovery_from_flipping params cell ~schedule ~time ~mode:`Read))
  in
  let term = Term.(const run $ flow_arg) in
  Cmd.v (Cmd.info "sram" ~doc:"6T SRAM read-stability degradation and bit-flipping recovery.") term

(* --- thermal --- *)

let thermal_cmd =
  let tasks_arg = Arg.(value & opt int 12 & info [ "tasks" ] ~docv:"N" ~doc:"Number of tasks.") in
  let idle_arg =
    Arg.(value & opt float 0.5 & info [ "idle-fraction" ] ~docv:"F" ~doc:"Standby share of total time.")
  in
  let run n_tasks idle_fraction seed =
    let rng = Physics.Rng.create ~seed in
    let model = Thermal.Rc_model.default in
    let tasks = Thermal.Workload.random_tasks ~rng ~n:n_tasks () in
    let mixed = Thermal.Workload.with_idle ~rng ~idle_power:8.0 ~idle_fraction tasks in
    let s = Thermal.Workload.summarize model ~active_threshold:20.0 mixed in
    let a, st = s.Thermal.Workload.ras in
    Format.printf "workload: %d tasks + idle, active %.0f s / standby %.0f s (RAS %.2f:%.2f)@."
      n_tasks s.Thermal.Workload.active_time s.Thermal.Workload.standby_time a st;
    Format.printf "steady temperatures: T_active = %.1f K (%.1f C), T_standby = %.1f K (%.1f C)@."
      s.Thermal.Workload.t_active
      (Physics.Units.celsius_of_kelvin s.Thermal.Workload.t_active)
      s.Thermal.Workload.t_standby
      (Physics.Units.celsius_of_kelvin s.Thermal.Workload.t_standby)
  in
  let term = Term.(const run $ tasks_arg $ idle_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "thermal" ~doc:"Generate a task-set workload and extract (RAS, T_active, T_standby).")
    term

(* --- variation --- *)

let variation_cmd =
  let samples_arg =
    Arg.(value & opt int 500 & info [ "samples" ] ~docv:"N" ~doc:"Monte-Carlo samples.")
  in
  let sigma_arg =
    Arg.(
      value & opt float 0.015
      & info [ "sigma" ] ~docv:"V" ~doc:"Per-gate Vth0 standard deviation [V].")
  in
  let run net (flow : P.flow_spec) seed samples sigma jobs trace level json =
    apply_jobs jobs;
    with_observability ~cid:("cli:variation:" ^ net_name net) ~level ~json ~trace
    @@ fun () ->
    let aging = (P.platform_config flow).aging in
    let config = Variation.Process_var.default_config ~sigma_vth:sigma ~n_samples:samples aging in
    let sp = Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5) in
    let t0 = Unix.gettimeofday () in
    let study =
      Variation.Process_var.run config net ~node_sp:sp
        ~standby:Aging.Circuit_aging.Standby_all_stressed ~rng:(Physics.Rng.create ~seed)
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let ps x = Flow.Report.cell_ps x ^ " ps" in
    let row label f =
      [ label; ps (f study.Variation.Process_var.fresh); ps (f study.Variation.Process_var.aged) ]
    in
    Flow.Report.print
      {
        Flow.Report.title =
          Printf.sprintf "Process variation study of %s (%d samples, sigma %g mV, %g years)"
            net.Circuit.Netlist.name samples (sigma *. 1e3) flow.years;
        header = [ "metric"; "fresh"; "aged" ];
        rows =
          [
            row "mean" (fun s -> s.Physics.Stats.mean);
            row "stddev" (fun s -> s.Physics.Stats.stddev);
            row "min" (fun s -> s.Physics.Stats.min);
            row "max" (fun s -> s.Physics.Stats.max);
            [
              "3-sigma band";
              Printf.sprintf "%s .. %s"
                (ps (fst study.Variation.Process_var.fresh_3sigma))
                (ps (snd study.Variation.Process_var.fresh_3sigma));
              Printf.sprintf "%s .. %s"
                (ps (fst study.Variation.Process_var.aged_3sigma))
                (ps (snd study.Variation.Process_var.aged_3sigma));
            ];
          ];
      };
    Format.printf "aged 3-sigma low above fresh 3-sigma high (aging dominates variation): %b@."
      (Variation.Process_var.crossover study);
    (* Timing goes to stderr so stdout diffs cleanly across --jobs values. *)
    Format.eprintf "wall time: %.3f s@." elapsed
  in
  let term =
    Term.(
      const run $ timed_netlist_arg $ flow_arg $ seed_arg $ samples_arg $ sigma_arg $ jobs_arg $ trace_arg
      $ log_level_arg $ log_json_arg)
  in
  Cmd.v
    (Cmd.info "variation"
       ~doc:"Monte-Carlo process-variation study of fresh vs aged delay (Fig. 12).")
    term

(* --- profile: per-stage time/alloc table --- *)

let profile_cmd =
  let runs_arg =
    Arg.(value & opt int 5 & info [ "runs" ] ~docv:"N" ~doc:"Repetitions of every stage.")
  in
  let run net flow runs jobs =
    apply_jobs jobs;
    if runs < 1 then begin
      prerr_endline "runs must be >= 1";
      exit 1
    end;
    let aging = (P.platform_config flow).aging in
    let tech = aging.Aging.Circuit_aging.tech in
    let temp_k = aging.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
    let standby = Aging.Circuit_aging.Standby_all_stressed in
    let input_sp = Logic.Signal_prob.uniform_inputs net 0.5 in
    (* Inputs each stage needs are computed once up front, so the timed
       region of a stage covers that stage only. *)
    let sp =
      Logic.Signal_prob.monte_carlo net ~rng:(Physics.Rng.create ~seed:7) ~input_sp ~n_vectors:4096
    in
    let a = Compiled.Arena.get net in
    let dvth =
      Compiled.Arena.stage_values a
        (Aging.Circuit_aging.stage_dvth_map aging net ~node_sp:sp ~standby)
    in
    let stages =
      [
        ( "signal-prob (MC, 4096 vectors)",
          fun () ->
            ignore
              (Logic.Signal_prob.monte_carlo net ~rng:(Physics.Rng.create ~seed:7) ~input_sp
                 ~n_vectors:4096) );
        ( "thermal (workload -> RAS, T)",
          fun () ->
            let rng = Physics.Rng.create ~seed:42 in
            let tasks = Thermal.Workload.random_tasks ~rng ~n:12 () in
            let mixed = Thermal.Workload.with_idle ~rng ~idle_power:8.0 ~idle_fraction:0.5 tasks in
            ignore (Thermal.Workload.summarize Thermal.Rc_model.default ~active_threshold:20.0 mixed)
        );
        ( "aging (R-D dVth table)",
          fun () ->
            let (_ : gate:int -> stage:int -> float) =
              Aging.Circuit_aging.stage_dvth_map aging net ~node_sp:sp ~standby
            in
            () );
        ( "STA (compiled: constants + fresh + aged)",
          fun () ->
            let tm = Compiled.Timing.build a ~tech ~temp_k () in
            ignore (Compiled.Timing.fresh_result tm);
            ignore (Compiled.Timing.aged_result tm ~dvth ()) );
        ( "leakage (tables + expectation)",
          fun () ->
            let tabs = Leakage.Circuit_leakage.build_tables tech net ~temp_k:400.0 in
            ignore (Leakage.Circuit_leakage.expected_leakage tabs net ~node_sp:sp) );
      ]
    in
    let measure (label, f) =
      let samples =
        Array.init runs (fun _ ->
            let a0 = Gc.allocated_bytes () in
            let t0 = Unix.gettimeofday () in
            f ();
            let dt = Unix.gettimeofday () -. t0 in
            (dt, Gc.allocated_bytes () -. a0))
      in
      let times = Array.map fst samples in
      let min_s = Array.fold_left Float.min Float.infinity times in
      let mean_s = Array.fold_left ( +. ) 0.0 times /. float_of_int runs in
      (* Allocation is deterministic per run; the first sample is the
         per-run figure (later samples would only echo it). *)
      let alloc_mb = snd samples.(0) /. (1024.0 *. 1024.0) in
      [
        label;
        Printf.sprintf "%.3f" (min_s *. 1e3);
        Printf.sprintf "%.3f" (mean_s *. 1e3);
        Printf.sprintf "%.2f" alloc_mb;
      ]
    in
    Flow.Report.print
      {
        Flow.Report.title =
          Printf.sprintf "Pipeline profile of %s (%d gates, %d runs per stage)"
            net.Circuit.Netlist.name (Circuit.Netlist.n_gates net) runs;
        header = [ "stage"; "min [ms]"; "mean [ms]"; "alloc/run [MB]" ];
        rows = List.map measure stages;
      }
  in
  let term =
    Term.(
      const run $ timed_netlist_arg $ flow_arg $ runs_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run each pipeline stage N times and print a per-stage time/allocation table.")
    term

(* --- trace: summarize a recorded Chrome trace --- *)

let trace_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Chrome trace_event JSON written by --trace or trace_export.")
  in
  let merge_arg =
    Arg.(
      value & opt (some string) None
      & info [ "merge" ] ~docv:"OUT"
          ~doc:
            "Merge the input traces (pid-remapped, ts-rebased onto the earliest origin) into \
             one Chrome trace at $(docv), then summarize the result.")
  in
  let read_json path =
    let text =
      match open_in path with
      | ic ->
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      | exception Sys_error m ->
        prerr_endline m;
        exit 1
    in
    match Server.Json.of_string text with
    | json -> json
    | exception Server.Json.Parse_error m ->
      Format.eprintf "%s: not valid JSON: %s@." path m;
      exit 1
  in
  (* Complete ("X") events carry their ancestry under args.path;
     instant markers have no duration and are only counted. *)
  let flame_pairs events =
    List.filter_map
      (fun e ->
        match (Server.Json.member_opt "args" e, Server.Json.member_opt "dur" e) with
        | Some args, Some dur -> begin
          match Server.Json.member_opt "path" args with
          | Some (Server.Json.String p) -> begin
            match Server.Json.to_float dur with
            | d when d > 0.0 -> Some (p, d)
            | _ -> None
            | exception Server.Json.Type_error _ -> None
          end
          | _ -> None
        end
        | _ -> None)
      events
  in
  let summarize label json =
    match Server.Tracefile.parse json with
    | Error m ->
      Format.eprintf "%s: %s@." label m;
      exit 1
    | Ok parsed ->
      let s = Server.Tracefile.summarize parsed in
      let ids = Server.Tracefile.trace_ids parsed in
      Format.printf "%d events (%d spans) in %s@." s.Server.Tracefile.events
        s.Server.Tracefile.spans label;
      List.iter
        (fun (pid, name) -> Format.printf "  pid %d: %s@." pid name)
        (List.sort compare s.Server.Tracefile.processes);
      if ids <> [] then
        Format.printf "  trace ids: %s@." (String.concat ", " ids);
      print_string
        (Obs.Trace.flame_of_paths (flame_pairs parsed.Server.Tracefile.events)
           ~dropped:s.Server.Tracefile.dropped)
  in
  let run paths merge_out =
    let inputs = List.map (fun p -> (p, read_json p)) paths in
    match merge_out with
    | None -> List.iter (fun (path, json) -> summarize path json) inputs
    | Some out ->
      let merged =
        try
          Server.Tracefile.merge
            (List.map
               (fun (path, json) ->
                 (Some (Filename.remove_extension (Filename.basename path)), json))
               inputs)
        with Server.Json.Type_error m ->
          Format.eprintf "merge failed: %s@." m;
          exit 1
      in
      (try
         let oc = open_out out in
         output_string oc (Server.Json.to_string merged);
         output_char oc '\n';
         close_out oc
       with Sys_error m ->
         Format.eprintf "cannot write %s: %s@." out m;
         exit 1);
      summarize out merged
  in
  let term = Term.(const run $ files_arg $ merge_arg) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Validate recorded Chrome traces, print their flame summaries, and optionally merge \
          several processes' traces into one timeline.")
    term

(* --- calibrate / gen-measurements: Bayesian R-D parameter inference --- *)

let float_list_conv ~what =
  let parse s =
    let parts = String.split_on_char ',' (String.trim s) in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest -> begin
        match float_of_string_opt (String.trim p) with
        | Some v when Float.is_finite v && v > 0.0 -> go (v :: acc) rest
        | _ -> Error (`Msg (Printf.sprintf "%s: expected positive numbers, got %S" what p))
      end
    in
    go [] parts
  in
  let print fmt a =
    Format.fprintf fmt "%s"
      (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%g") a)))
  in
  Arg.conv (parse, print)

let calibrate_cmd =
  let csv_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"CSV"
          ~doc:"Measurement CSV: time_s,temp_k,vdd_v,dvth_v rows (header and # comments ok).")
  in
  (* one predict point per flag, checked as the wire's predict member *)
  let predict_arg =
    let parse s =
      let number x = flag_json (F.Float { min = None; max = None }) (String.trim x) in
      let point = Server.Json.List (List.map number (String.split_on_char ',' s)) in
      try Ok (F.read F.predict (Server.Json.List [ point ])).(0)
      with F.Error e -> Error (`Msg (error_text e))
    in
    let print fmt (t, temp, v) = Format.fprintf fmt "%g,%g,%g" t temp v in
    Arg.(
      value & opt_all (conv (parse, print)) []
      & info [ "predict" ] ~docv:"T,K,V" ~doc:(F.predict.F.doc ^ " One time_s,temp_k,vdd_v point per flag."))
  in
  let output_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the JSON posterior here instead of stdout.")
  in
  let run csv config output jobs trace level json =
    apply_jobs jobs;
    with_observability ~cid:("cli:calibrate:" ^ Filename.basename csv) ~level ~json ~trace
    @@ fun () ->
    let dataset =
      match Calibrate.Dataset.of_csv_file csv with
      | Ok d -> d
      | Error { Calibrate.Dataset.line; message } ->
        (match line with
        | Some l -> Format.eprintf "nbti_tool calibrate: %s:%d: %s@." csv l message
        | None -> Format.eprintf "nbti_tool calibrate: %s: %s@." csv message);
        exit 1
    in
    (match Calibrate.Engine.validate config with
    | Ok () -> ()
    | Error m ->
      Format.eprintf "nbti_tool calibrate: %s@." m;
      exit 1);
    let t0 = Unix.gettimeofday () in
    let posterior = Calibrate.Engine.run config dataset in
    let elapsed = Unix.gettimeofday () -. t0 in
    let body = Server.Json.to_string (Server.Protocol.json_of_posterior ~dataset posterior) in
    (match output with
    | None -> print_endline body
    | Some path ->
      let oc = open_out path in
      output_string oc body;
      output_char oc '\n';
      close_out oc);
    Format.eprintf "calibrate: %d points, %d draws, wall time %.3f s@."
      (Calibrate.Dataset.length dataset)
      (Array.length posterior.Calibrate.Posterior.draws)
      elapsed
  in
  let term =
    Term.(
      const run $ csv_arg
      $ (const P.calibrate_engine_config $ field F.sampler $ field F.particles
        $ field F.chains $ field F.warmup $ field F.samples $ field F.thin $ field F.calibrate_seed
        $ field F.ci_level $ (const Array.of_list $ predict_arg))
      $ output_arg $ jobs_arg $ trace_arg $ log_level_arg $ log_json_arg)
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Fit the JEP122H NBTI law to measured dVth data by Bayesian inference: posterior \
          credible intervals, predictive degradation bands and an R-D parameter bridge.")
    term

let gen_measurements_cmd =
  let output_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the CSV here instead of stdout.")
  in
  let replicates_arg =
    Arg.(value & opt int 1 & info [ "replicates" ] ~docv:"N" ~doc:"Noisy observations per grid cell.")
  in
  let times_arg =
    Arg.(
      value & opt (some (float_list_conv ~what:"times")) None
      & info [ "times" ] ~docv:"S,S,..." ~doc:"Stress times [s] (default: 6 log-spaced 1e3..1e8).")
  in
  let temps_arg =
    Arg.(
      value & opt (some (float_list_conv ~what:"temps")) None
      & info [ "temps" ] ~docv:"K,K,..." ~doc:"Stress temperatures [K] (default: 330,365,400).")
  in
  let vdds_arg =
    Arg.(
      value & opt (some (float_list_conv ~what:"vdds")) None
      & info [ "vdds" ] ~docv:"V,V,..." ~doc:"Stress gate drives [V] (default: 0.9,1.0,1.1).")
  in
  let truth = Calibrate.Synth.default_truth in
  let log_a0_arg =
    Arg.(
      value & opt float truth.Calibrate.Model.log_a0
      & info [ "log-a0" ] ~docv:"X" ~doc:"Ground-truth ln A0.")
  in
  let eaa_arg =
    Arg.(
      value & opt float truth.Calibrate.Model.eaa_ev
      & info [ "eaa" ] ~docv:"EV" ~doc:"Ground-truth apparent activation energy [eV].")
  in
  let alpha_arg =
    Arg.(
      value & opt float truth.Calibrate.Model.alpha_v
      & info [ "alpha" ] ~docv:"A" ~doc:"Ground-truth voltage exponent.")
  in
  let n_arg =
    Arg.(
      value & opt float truth.Calibrate.Model.n_t
      & info [ "n" ] ~docv:"N" ~doc:"Ground-truth time exponent.")
  in
  let noise_arg =
    Arg.(
      value & opt float (Float.exp truth.Calibrate.Model.log_sigma)
      & info [ "noise" ] ~docv:"V" ~doc:"Measurement noise sigma [V].")
  in
  let run output seed replicates times temps vdds log_a0 eaa alpha n noise =
    if not (Float.is_finite noise && noise > 0.0) then begin
      prerr_endline "nbti_tool gen-measurements: noise must be positive";
      exit 1
    end;
    if replicates < 1 then begin
      prerr_endline "nbti_tool gen-measurements: replicates must be >= 1";
      exit 1
    end;
    let truth =
      {
        Calibrate.Model.log_a0;
        eaa_ev = eaa;
        alpha_v = alpha;
        n_t = n;
        log_sigma = Float.log noise;
      }
    in
    let data = Calibrate.Synth.generate ?times ?temps ?vdds ~replicates ~truth ~seed () in
    let buf = Buffer.create 4096 in
    (* Ground truth rides along as comment lines the CSV parser skips, so a
       generated file is self-documenting and still feeds calibrate as-is. *)
    Buffer.add_string buf
      (Printf.sprintf "# synthetic JEP122H measurements (seed %d, %d points)\n" seed
         (Calibrate.Dataset.length data));
    Buffer.add_string buf
      (Printf.sprintf "# truth: log_a0=%.17g eaa_ev=%.17g alpha_v=%.17g n_t=%.17g sigma_v=%.17g\n"
         truth.Calibrate.Model.log_a0 truth.Calibrate.Model.eaa_ev truth.Calibrate.Model.alpha_v
         truth.Calibrate.Model.n_t noise);
    Buffer.add_string buf (Calibrate.Dataset.to_csv data);
    (match output with
    | None -> print_string (Buffer.contents buf)
    | Some path ->
      let oc = open_out path in
      Buffer.output_buffer oc buf;
      close_out oc;
      Format.eprintf "gen-measurements: %d points written to %s@."
        (Calibrate.Dataset.length data) path)
  in
  let term =
    Term.(
      const run $ output_arg $ seed_arg $ replicates_arg $ times_arg $ temps_arg $ vdds_arg
      $ log_a0_arg $ eaa_arg $ alpha_arg $ n_arg $ noise_arg)
  in
  Cmd.v
    (Cmd.info "gen-measurements"
       ~doc:"Generate a synthetic noisy NBTI measurement CSV from known ground truth.")
    term

(* --- serve / request: the aging-analysis daemon and its client --- *)

let endpoint_conv =
  let parse s = match Server.Netline.endpoint_of_string s with Ok e -> Ok e | Error m -> Error (`Msg m) in
  let print fmt e = Format.pp_print_string fmt (Server.Netline.endpoint_to_string e) in
  Arg.conv (parse, print)

let endpoint_arg =
  let doc =
    "Service endpoint: a Unix socket path (optionally prefixed unix:) or tcp:HOST:PORT."
  in
  Arg.(required & opt (some endpoint_conv) None & info [ "s"; "socket" ] ~docv:"ENDPOINT" ~doc)

let faults_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (Server.Faults.parse s) in
  let print fmt f = Format.pp_print_string fmt (Server.Json.to_string (Server.Faults.to_json f)) in
  Arg.(
    value & opt (conv (parse, print)) Server.Faults.none
    & info [ "faults" ] ~docv:"SPEC"
        ~env:(Cmd.Env.info "NBTI_FAULTS")
        ~doc:
          "Fault-injection plan for chaos testing: comma-separated site=action[@N] rules. \
           Every site takes delay:MS and one failure action: admission=shed and \
           compute=fail on serve; connect=fail, probe=fail and handoff=fail on route; \
           write=truncate on both.")

(* Runs a role's front-end ([serve] or [route]) in the foreground until
   SIGINT stops it or SIGTERM drains it: arms the access log, prints the
   ready banner ([banner] first, then the armed fault plan) and maps a
   socket error to exit 1. *)
let run_frontend ~cmd fe endpoint ~access_log ~faults ~drain_timeout_ms ~banner =
  let access_oc =
    match access_log with
    | None -> None
    | Some path -> begin
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | oc ->
        Server.Frontend.set_access_log fe oc;
        Some oc
      | exception Sys_error m ->
        Format.eprintf "nbti_tool %s: cannot open access log: %s@." cmd m;
        exit 1
    end
  in
  Server.Frontend.install_signal_handlers fe;
  let on_ready () =
    banner ();
    if not (Server.Faults.is_empty faults) then
      Format.printf "fault injection armed: %s@."
        (Server.Json.to_string (Server.Faults.to_json faults));
    Format.printf "protocol v%d; SIGINT stops, SIGTERM drains (up to %d ms)@."
      Server.Protocol.version drain_timeout_ms
  in
  (try Server.Frontend.serve fe endpoint ~on_ready () with
  | Unix.Unix_error (err, fn, arg) ->
    Format.eprintf "nbti_tool %s: %s(%s): %s@." cmd fn arg (Unix.error_message err);
    exit 1);
  Option.iter close_out_noerr access_oc

let serve_cmd =
  let result_cache_arg =
    Arg.(value & opt int 256 & info [ "result-cache" ] ~docv:"N" ~doc:"Result cache entries.")
  in
  let result_cache_mb_arg =
    Arg.(
      value & opt int 64
      & info [ "result-cache-mb" ] ~docv:"MB" ~doc:"Approximate result cache byte budget.")
  in
  let prepared_cache_arg =
    Arg.(value & opt int 32 & info [ "prepared-cache" ] ~docv:"N" ~doc:"Prepared-pipeline cache entries.")
  in
  let max_pending_arg =
    Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N" ~doc:"Concurrent requests before overload.")
  in
  let max_batch_arg =
    Arg.(
      value
      & opt int Server.Service.default_limits.Server.Service.max_batch_jobs
      & info [ "max-batch" ] ~docv:"N" ~doc:"Most jobs accepted in one batch request.")
  in
  let max_gates_arg =
    Arg.(
      value
      & opt int Server.Service.default_limits.Server.Service.max_gates
      & info [ "max-gates" ] ~docv:"N" ~doc:"Largest accepted netlist (gate count).")
  in
  let max_line_bytes_arg =
    Arg.(
      value
      & opt int Server.Service.default_limits.Server.Service.max_line_bytes
      & info [ "max-line-bytes" ] ~docv:"BYTES" ~doc:"Longest accepted request line.")
  in
  let default_timeout_arg =
    Arg.(
      value & opt (some int) None
      & info [ "default-timeout-ms" ] ~docv:"MS"
          ~doc:"Compute budget applied to requests that carry no timeout_ms of their own.")
  in
  let drain_timeout_arg =
    Arg.(
      value & opt int Server.Frontend.default_drain_timeout_ms
      & info [ "drain-timeout-ms" ] ~docv:"MS"
          ~doc:
            "On SIGTERM, stop accepting and wait up to $(docv) for in-flight requests to \
             finish before the socket closes (graceful drain; SIGINT stops immediately).")
  in
  let access_log_arg =
    Arg.(
      value & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL record per handled request (ts, correlation id, endpoint, ok, \
             elapsed_s, error code) to $(docv).")
  in
  let run endpoint result_capacity result_cache_mb prepared_capacity max_pending max_batch
      max_gates max_line_bytes default_timeout_ms drain_timeout_ms faults access_log
      slo_spec trace_spans level json jobs =
    apply_jobs jobs;
    apply_logging level json;
    let slo = parse_slo ~cmd:"serve" slo_spec in
    if trace_spans > 0 then Obs.Trace.install (Obs.Trace.create ~capacity:trace_spans ());
    let limits =
      {
        Server.Service.max_batch_jobs = max_batch;
        max_gates;
        max_line_bytes;
        default_timeout_ms;
      }
    in
    let t =
      Server.Service.create ~result_capacity
        ~result_max_bytes:(result_cache_mb * 1024 * 1024)
        ~prepared_capacity ~max_pending ~drain_timeout_ms ~limits ~faults ?slo ()
    in
    (* The pool this host actually runs with, so an operator can spot a
       mis-sized one (e.g. NBTI_JOBS from a stale deployment) at startup. *)
    Obs.Log.info
      ~fields:[ ("domains", Obs.Fields.Int (Parallel.Pool.domains (Parallel.Pool.default ()))) ]
      "serve: worker pool";
    run_frontend ~cmd:"serve" t endpoint ~access_log ~faults ~drain_timeout_ms ~banner:(fun () ->
        Format.printf "nbti_tool: serving on %s@." (Server.Netline.endpoint_to_string endpoint));
    Format.printf "nbti_tool: server stopped@."
  in
  let term =
    Term.(
      const run $ endpoint_arg $ result_cache_arg $ result_cache_mb_arg $ prepared_cache_arg
      $ max_pending_arg $ max_batch_arg $ max_gates_arg $ max_line_bytes_arg
      $ default_timeout_arg $ drain_timeout_arg $ faults_arg $ access_log_arg $ slo_spec_arg
      $ trace_spans_arg $ log_level_arg $ log_json_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the aging-analysis daemon: newline-delimited JSON requests over a socket.")
    term

let request_cmd =
  let body_arg =
    let doc =
      "Request: a raw JSON object (versioned protocol), a circuit name (shorthand for a default \
       analyze request), or - to read one JSON request per line from stdin."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REQUEST" ~doc)
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry transient failures (overloaded server, lost or truncated connections) up to \
             N times with jittered exponential backoff; every protocol operation is idempotent, \
             so retrying is always safe.")
  in
  let timeout_ms_arg =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request compute budget, injected as timeout_ms into requests that do not \
             already carry one; the server answers deadline_exceeded when it runs out.")
  in
  let retry_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "retry-seed" ] ~docv:"SEED"
          ~doc:"Seed for the deterministic backoff jitter (reproducible retry schedules).")
  in
  let request_line body =
    let is_json = String.length body > 0 && (body.[0] = '{' || body.[0] = '[') in
    if is_json then body
    else
      (* shorthand: a circuit name (or .bench path) becomes a default analyze *)
      let circuit =
        if Sys.file_exists body then
          P.Bench (In_channel.with_open_bin body In_channel.input_all)
        else P.Named body
      in
      let request = P.Single (Analyze { circuit; flow = P.default_flow_spec; standby = Worst }) in
      Server.Json.to_string (P.json_of_envelope { id = None; timeout_ms = None; trace = None; request })
  in
  let run endpoint body retries timeout_ms retry_seed trace =
    let policy = { Server.Retry.default_policy with Server.Retry.retries } in
    let rng = Physics.Rng.split (Physics.Rng.create ~seed:retry_seed) in
    let collector =
      match trace with
      | None -> None
      | Some _ ->
        let c = Obs.Trace.create () in
        Obs.Trace.install c;
        Some c
    in
    (* A deadline-bounded request must not hang the client on a wedged
       server: bound the read at several times the compute budget (the
       server itself answers within ~2x). *)
    let read_timeout_s =
      Option.map (fun ms -> Float.max 5.0 (4.0 *. float_of_int ms /. 1000.0)) timeout_ms
    in
    let client = Server.Client.create ?read_timeout_s endpoint in
    (* Inject the --timeout-ms budget into requests that do not already
       carry one; raw JSON bodies keep whatever they say. *)
    let with_timeout line =
      match timeout_ms with
      | None -> line
      | Some ms -> begin
        match Server.Json.of_string line with
        | Server.Json.Assoc kvs when not (List.mem_assoc "timeout_ms" kvs) ->
          Server.Json.to_string (Server.Json.Assoc (kvs @ [ ("timeout_ms", Server.Json.Int ms) ]))
        | _ -> line
        | exception Server.Json.Parse_error _ -> line
      end
    in
    let ok = ref true in
    let print_response response =
      print_endline response;
      match Server.Json.(member_opt "ok" (of_string response)) with
      | Some (Server.Json.Bool true) -> ()
      | _ -> ok := false
      | exception _ -> ok := false
    in
    let on_retry ~attempt ~reason ~sleep_ms =
      Format.eprintf "nbti_tool request: %s; retry %d/%d in %d ms@." reason (attempt + 1)
        policy.Server.Retry.retries sleep_ms
    in
    let send line =
      let go () =
        match Server.Client.call client ~policy ~rng ~on_retry (with_timeout line) with
        | Ok response -> print_response response
        | Error { Server.Client.attempts; reason; last_response } ->
          Format.eprintf "nbti_tool request: giving up after %d attempt%s: %s@." attempts
            (if attempts = 1 then "" else "s")
            reason;
          (* still surface the server's final word (e.g. the overloaded
             error envelope) so callers can inspect it *)
          (match last_response with Some r -> print_endline r | None -> ());
          ok := false
      in
      (* A traced request originates the distributed trace here, at the
         client edge: the cli.request span is the trace root, and
         Client.call stamps the context onto the wire so router and
         backend spans nest under it in a merged view. *)
      if Obs.Trace.enabled () then
        Obs.Ctx.with_trace
          { Obs.Ctx.trace_id = Obs.Trace.new_trace_id (); parent_span = None }
          (fun () -> Obs.Trace.with_span ~cat:"client" "cli.request" go)
      else go ()
    in
    if body = "-" then begin
      try
        while true do
          let line = input_line stdin in
          if String.trim line <> "" then send line
        done
      with End_of_file -> ()
    end
    else send (request_line body);
    Server.Client.close client;
    (match (trace, collector) with
    | Some path, Some c ->
      Obs.Trace.uninstall ();
      (try
         Obs.Trace.write_chrome_json ~process_name:"client" c ~path;
         Format.eprintf "trace: %d spans written to %s@." (List.length (Obs.Trace.spans c)) path
       with Sys_error m -> Format.eprintf "trace: cannot write %s: %s@." path m)
    | _ -> ());
    if not !ok then exit 1
  in
  let request_trace_arg =
    let doc =
      "Record this client's spans (one cli.request root per request, carrying a fresh trace \
       id that the server side joins) as Chrome trace_event JSON to $(docv); merge with the \
       server's trace via 'nbti_tool trace --merge'."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let term =
    Term.(
      const run $ endpoint_arg $ body_arg $ retries_arg $ timeout_ms_arg $ retry_seed_arg
      $ request_trace_arg)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one request (or stdin lines with -) to a running analysis daemon.")
    term

let route_cmd =
  let backends_arg =
    let doc =
      "Backend daemon endpoint (repeatable). Requests are consistent-hash routed across all \
       backends by netlist digest + platform fingerprint."
    in
    Arg.(non_empty & opt_all endpoint_conv [] & info [ "b"; "backend" ] ~docv:"ENDPOINT" ~doc)
  in
  let vnodes_arg =
    Arg.(
      value & opt int Fleet.Router.default_config.Fleet.Router.vnodes
      & info [ "vnodes" ] ~docv:"N" ~doc:"Virtual nodes per backend on the hash ring.")
  in
  let failover_arg =
    Arg.(
      value & opt int Fleet.Router.default_config.Fleet.Router.failover_attempts
      & info [ "failover-attempts" ] ~docv:"N"
          ~doc:
            "Most backends tried per request before answering fleet_degraded (every routed op \
             is idempotent, so rehash-and-retry is safe).")
  in
  let probe_interval_arg =
    Arg.(
      value & opt int Fleet.Router.default_config.Fleet.Router.probe_interval_ms
      & info [ "probe-interval-ms" ] ~docv:"MS"
          ~doc:
            "Health-probe cadence for healthy backends; failing ones back off exponentially \
             with jitter up to --probe-backoff-cap-ms.")
  in
  let probe_cap_arg =
    Arg.(
      value & opt int Fleet.Router.default_config.Fleet.Router.probe_backoff_cap_ms
      & info [ "probe-backoff-cap-ms" ] ~docv:"MS" ~doc:"Probe backoff ceiling.")
  in
  let probe_timeout_arg =
    Arg.(
      value & opt int Fleet.Router.default_config.Fleet.Router.probe_timeout_ms
      & info [ "probe-timeout-ms" ] ~docv:"MS" ~doc:"Per-probe read timeout.")
  in
  let handoff_entries_arg =
    Arg.(
      value & opt int Fleet.Router.default_config.Fleet.Router.handoff_max_entries
      & info [ "handoff-entries" ] ~docv:"N"
          ~doc:"Hottest result-cache entries moved per warm-cache handoff export.")
  in
  let run endpoint backends vnodes failover_attempts probe_interval_ms probe_backoff_cap_ms
      probe_timeout_ms handoff_max_entries faults access_log slo_spec trace trace_spans
      level json =
    apply_logging level json;
    let slo = parse_slo ~cmd:"route" slo_spec in
    (* --trace implies a collector; --trace-spans sizes it (and enables
       trace_export without a shutdown file when given alone). *)
    let collector =
      if trace <> None || trace_spans > 0 then begin
        let c =
          if trace_spans > 0 then Obs.Trace.create ~capacity:trace_spans ()
          else Obs.Trace.create ()
        in
        Obs.Trace.install c;
        Some c
      end
      else None
    in
    let config =
      {
        Fleet.Router.default_config with
        Fleet.Router.vnodes;
        failover_attempts;
        probe_interval_ms;
        probe_backoff_cap_ms;
        probe_timeout_ms;
        handoff_max_entries;
      }
    in
    let t =
      try Fleet.Router.create ~config ~faults ?slo backends
      with Invalid_argument m ->
        Format.eprintf "nbti_tool route: %s@." m;
        exit 2
    in
    run_frontend ~cmd:"route" t endpoint ~access_log ~faults
      ~drain_timeout_ms:Server.Frontend.default_drain_timeout_ms ~banner:(fun () ->
        Format.printf "nbti_tool: routing on %s across %d backend%s@."
          (Server.Netline.endpoint_to_string endpoint)
          (List.length backends)
          (if List.length backends = 1 then "" else "s");
        List.iter
          (fun b -> Format.printf "  backend %s@." (Server.Netline.endpoint_to_string b))
          backends);
    (* Shutdown-time trace collection: the backends are still serving
       (the router stops first in a rolling shutdown), so drain their
       span rings and write the whole fleet as one merged trace. *)
    (match (trace, collector) with
    | Some path, Some c ->
      Obs.Trace.uninstall ();
      let own = Obs.Trace.to_chrome ~process_name:"router" c in
      let backend_traces = Fleet.Router.collect_backend_traces t in
      let inputs =
        (None, own) :: List.map (fun (name, tr) -> (Some name, tr)) backend_traces
      in
      (try
         let merged = Server.Tracefile.merge inputs in
         let oc = open_out path in
         output_string oc (Server.Json.to_string merged);
         output_char oc '\n';
         close_out oc;
         Format.eprintf "trace: merged router + %d backend trace%s to %s@."
           (List.length backend_traces)
           (if List.length backend_traces = 1 then "" else "s")
           path
       with
      | Server.Json.Type_error m -> Format.eprintf "trace: merge failed: %s@." m
      | Sys_error m -> Format.eprintf "trace: cannot write %s: %s@." path m)
    | _ -> ());
    Format.printf "nbti_tool: router stopped@."
  in
  let route_trace_arg =
    let doc =
      "Record router spans and, at shutdown, drain every backend's span ring (trace_export) \
       and write the whole fleet as one merged Chrome trace to $(docv). Backends must run \
       with --trace-spans to participate."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let route_access_log_arg =
    Arg.(
      value & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL record per routed request (ts, correlation id, endpoint, ok, \
             elapsed_s, error code, plus backend, failover_count and coalesced) to $(docv).")
  in
  let term =
    Term.(
      const run $ endpoint_arg $ backends_arg $ vnodes_arg $ failover_arg $ probe_interval_arg
      $ probe_cap_arg $ probe_timeout_arg $ handoff_entries_arg $ faults_arg
      $ route_access_log_arg $ slo_spec_arg $ route_trace_arg $ trace_spans_arg $ log_level_arg
      $ log_json_arg)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the fleet router: consistent-hash route requests across backend daemons with \
          singleflight coalescing, health-probe failover and warm-cache handoff.")
    term

(* --- top: one-shot / interval text dashboard over a daemon's stats --- *)

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 0.0
      & info [ "interval" ] ~docv:"S"
          ~doc:"Refresh every $(docv) seconds (clearing the screen) instead of one-shot.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"With --interval, stop after $(docv) refreshes (0 = until interrupted).")
  in
  let str name j =
    match Server.Json.member_opt name j with Some (Server.Json.String s) -> Some s | _ -> None
  in
  let num name j =
    match Server.Json.member_opt name j with
    | Some v -> ( try Some (Server.Json.to_float v) with Server.Json.Type_error _ -> None)
    | None -> None
  in
  let ms name j = match num name j with Some s -> s *. 1e3 | None -> Float.nan in
  let fmt v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" v in
  let fmt_int v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v in
  let render endpoint result =
    let role = Option.value ~default:"backend" (str "role" result) in
    let uptime = Option.value ~default:Float.nan (num "uptime_s" result) in
    Format.printf "%s — %s, up %.1f s@.@."
      (Server.Netline.endpoint_to_string endpoint)
      role uptime;
    (match Server.Json.member_opt "backends" result with
    | Some (Server.Json.List backends) when backends <> [] ->
      Flow.Report.print
        {
          Flow.Report.title = "backends";
          header =
            [ "endpoint"; "state"; "probes"; "failures"; "rtt p50 [ms]"; "rtt p95 [ms]" ];
          rows =
            List.map
              (fun b ->
                let rtt = Server.Json.member_opt "probe_rtt" b in
                (* probe_rtt fields are already in milliseconds *)
                let rtt_ms name =
                  match rtt with
                  | Some r -> fmt (Option.value ~default:Float.nan (num name r))
                  | None -> "-"
                in
                [
                  Option.value ~default:"?" (str "endpoint" b);
                  Option.value ~default:"?" (str "state" b);
                  fmt_int (Option.value ~default:Float.nan (num "probes" b));
                  fmt_int (Option.value ~default:Float.nan (num "probe_failures" b));
                  rtt_ms "p50_ms";
                  rtt_ms "p95_ms";
                ])
              backends;
        };
      Format.printf "@."
    | _ -> ());
    (match Server.Json.member_opt "endpoints" result with
    | Some (Server.Json.Assoc endpoints) when endpoints <> [] ->
      Flow.Report.print
        {
          Flow.Report.title = "per-op latency";
          header = [ "op"; "requests"; "errors"; "p50 [ms]"; "p95 [ms]"; "p99 [ms]" ];
          rows =
            List.map
              (fun (op, s) ->
                [
                  op;
                  fmt_int (Option.value ~default:Float.nan (num "requests" s));
                  fmt_int (Option.value ~default:Float.nan (num "errors" s));
                  fmt (ms "p50_s" s);
                  fmt (ms "p95_s" s);
                  fmt (ms "p99_s" s);
                ])
              endpoints;
        };
      Format.printf "@."
    | _ -> ());
    match Server.Json.member_opt "slo" result with
    | Some (Server.Json.List objectives) when objectives <> [] ->
      let window_burn label o =
        match Server.Json.member_opt "windows" o with
        | Some (Server.Json.List ws) -> begin
          match List.find_opt (fun w -> str "window" w = Some label) ws with
          | Some w -> fmt (Option.value ~default:Float.nan (num "burn_rate" w))
          | None -> "-"
        end
        | _ -> "-"
      in
      Flow.Report.print
        {
          Flow.Report.title = "SLO burn rates (1.0 = burning the whole error budget)";
          header = [ "op"; "threshold [ms]"; "target [%]"; "5m burn"; "1h burn" ];
          rows =
            List.map
              (fun o ->
                [
                  Option.value ~default:"?" (str "op" o);
                  fmt (Option.value ~default:Float.nan (num "threshold_ms" o));
                  fmt (Option.value ~default:Float.nan (num "target_pct" o));
                  window_burn "5m" o;
                  window_burn "1h" o;
                ])
              objectives;
        }
    | _ -> ()
  in
  let run endpoint interval count =
    let client = Server.Client.create ~read_timeout_s:10.0 endpoint in
    let stats_line =
      Server.Json.to_string (P.json_of_envelope { id = None; timeout_ms = None; trace = None; request = Stats })
    in
    let fetch () =
      match Server.Client.call client stats_line with
      | Ok response -> begin
        match Server.Json.of_string response with
        | json -> begin
          match (Server.Json.member_opt "ok" json, Server.Json.member_opt "result" json) with
          | Some (Server.Json.Bool true), Some result -> Ok result
          | _ -> Error response
        end
        | exception Server.Json.Parse_error m -> Error ("unparseable response: " ^ m)
      end
      | Error { Server.Client.reason; _ } -> Error reason
    in
    let rec loop i =
      if interval > 0.0 then print_string "\027[2J\027[H";
      (match fetch () with
      | Ok result -> render endpoint result
      | Error m ->
        Format.eprintf "nbti_tool top: %s@." m;
        if interval <= 0.0 then begin
          Server.Client.close client;
          exit 1
        end);
      if interval > 0.0 && (count = 0 || i + 1 < count) then begin
        Thread.delay interval;
        loop (i + 1)
      end
    in
    loop 0;
    Server.Client.close client
  in
  let term = Term.(const run $ endpoint_arg $ interval_arg $ count_arg) in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Text dashboard over a daemon or router's stats: backend health, per-op latency \
          percentiles and SLO burn rates, one-shot or refreshing with --interval.")
    term

let () =
  let doc = "Temperature-aware NBTI modeling and standby leakage co-optimization." in
  let info = Cmd.info "nbti_tool" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ stats_cmd; analyze_cmd; ivc_cmd; st_cmd; dvth_cmd; lifetime_cmd; gen_cmd; lib_cmd;
         verilog_cmd; seq_cmd; sram_cmd; thermal_cmd; variation_cmd; profile_cmd; trace_cmd;
         calibrate_cmd; gen_measurements_cmd; serve_cmd; request_cmd; route_cmd; top_cmd ]))
