(* Bechamel wall-clock suite: one Test.make per experiment kernel, so the
   cost of each table/figure regeneration is tracked. *)

open Bechamel
open Toolkit

let tech = Device.Tech.ptm_90nm
let params = Nbti.Rd_model.default_params
let ten_years = Physics.Units.ten_years
let cond = Nbti.Vth_shift.nominal_pmos tech

let worst_schedule =
  Nbti.Schedule.active_standby ~ras:(1.0, 9.0) ~t_active:400.0 ~t_standby:330.0 ~active_duty:0.5
    ~standby_duty:1.0 ()

let c432 = lazy (Circuit.Generators.by_name "c432")

let c432_sp =
  lazy
    (let net = Lazy.force c432 in
     Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5))

let c432_tables = lazy (Leakage.Circuit_leakage.build_tables tech (Lazy.force c432) ~temp_k:400.0)
let c432_arena = lazy (Compiled.Arena.get (Lazy.force c432))
let c432_timing = lazy (Compiled.Timing.build (Lazy.force c432_arena) ~tech ~temp_k:400.0 ())

(* Kernels, named after the experiment they power. Rows that simulate or
   time a circuit say which engine runs and what is already built: a
   warm arena or memo is looked up, not rebuilt, inside the timed
   region. *)

let t_dvth =
  Test.make ~name:"fig3/4+table1: temperature-aware dVth eval"
    (Staged.stage (fun () ->
         ignore (Nbti.Vth_shift.dvth params tech cond ~schedule:worst_schedule ~time:ten_years)))

let t_sn_recursion =
  Test.make ~name:"ablation2: S_n recursion (n=10000)"
    (Staged.stage (fun () -> ignore (Nbti.Ac_stress.s_n_exact ~c:0.5 ~n:10_000)))

let t_trace =
  Test.make ~name:"fig1: within-cycle stress/recovery trace"
    (Staged.stage (fun () ->
         ignore
           (Nbti.Vth_shift.trace_cycles params tech cond ~temp_k:400.0 ~tau:1000.0 ~c:0.5 ~cycles:6
              ~points_per_phase:5)))

let t_thermal =
  Test.make ~name:"fig2: RC thermal simulation of a task set"
    (Staged.stage (fun () ->
         let rng = Physics.Rng.create ~seed:2007 in
         let tasks = Thermal.Workload.random_tasks ~rng ~n:12 () in
         ignore
           (Thermal.Rc_model.simulate Thermal.Rc_model.default ~t0:350.0
              ~powers:(Thermal.Workload.power_trace tasks) ~dt:30.0)))

let t_lut =
  Test.make ~name:"table2: leakage LUT build (NOR3, stack solver)"
    (Staged.stage (fun () ->
         ignore (Cell.Cell_leakage.build_lut tech (Cell.Stdcell.nor_ 3) ~temp_k:400.0)))

let t_generate =
  Test.make ~name:"substrate: c432-profile netlist generation"
    (Staged.stage (fun () ->
         ignore
           (Circuit.Generators.random_dag
              (List.find
                 (fun p -> p.Circuit.Generators.name = "c432")
                 Circuit.Generators.iscas85_profiles))))

(* One 64-lane word per primary input, the alternating lane pattern. *)
let t_logic_sim =
  Test.make ~name:"flow: 64-vector bit-parallel c432 simulation [compiled arena, built]"
    (Staged.stage
       (let words =
          lazy
            (let a = Lazy.force c432_arena in
             let lo = Array.make a.Compiled.Arena.n_nodes 0 in
             let hi = Array.make a.Compiled.Arena.n_nodes 0 in
             Array.iter
               (fun id ->
                 lo.(id) <- 0x5555_5555;
                 hi.(id) <- 0x5555_5555)
               a.Compiled.Arena.pis;
             (a, lo, hi))
        in
        fun () ->
          let a, lo, hi = Lazy.force words in
          Compiled.Arena.eval_packed a ~lo ~hi))

let t_sp =
  Test.make ~name:"flow: analytic signal probabilities on c432 [boxed netlist walk]"
    (Staged.stage (fun () ->
         let net = Lazy.force c432 in
         ignore
           (Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5))))

let t_sta =
  Test.make ~name:"table4: fresh STA pass on c432 [compiled, timing constants built]"
    (Staged.stage (fun () -> ignore (Compiled.Timing.fresh_result (Lazy.force c432_timing))))

let t_aging =
  Test.make ~name:"fig5/11+table3/4: full aging analysis of c432 [compiled, arena + memos warm]"
    (Staged.stage (fun () ->
         let aging = Aging.Circuit_aging.default_config () in
         ignore
           (Aging.Circuit_aging.analyze aging (Lazy.force c432) ~node_sp:(Lazy.force c432_sp)
              ~standby:Aging.Circuit_aging.Standby_all_stressed ())))

(* The whole search at its served options (pool 64, up to 50 rounds), so
   the per-search memo pays across rounds as it does in [ivc_search]:
   compiled lane kernel, arena and LUT rows warm, a fresh RNG per run. *)
let t_mlv =
  Test.make ~name:"table3: MLV search on c432, default options [compiled lanes + memo, warm]"
    (Staged.stage (fun () ->
         ignore
           (Ivc.Mlv.probability_based (Lazy.force c432_tables) (Lazy.force c432)
              ~rng:(Physics.Rng.create ~seed:4) ())))

let t_leakage =
  Test.make
    ~name:"table3: standby leakage evaluation on c432 [boxed netlist walk, leakage tables built]"
    (Staged.stage (fun () ->
         let net = Lazy.force c432 in
         ignore
           (Leakage.Circuit_leakage.standby_leakage (Lazy.force c432_tables) net
              ~vector:(Array.make (Circuit.Netlist.n_primary_inputs net) false))))

let t_variation_sample =
  Test.make ~name:"fig12: one Monte-Carlo variation sample on c432 [compiled, arena + memos warm]"
    (Staged.stage
       (let rng = Physics.Rng.create ~seed:12 in
        fun () ->
          let aging = Aging.Circuit_aging.default_config () in
          let config = Variation.Process_var.default_config ~n_samples:2 aging in
          ignore
            (Variation.Process_var.run config (Lazy.force c432) ~node_sp:(Lazy.force c432_sp)
               ~standby:Aging.Circuit_aging.Standby_all_stressed ~rng)))

let t_st_sizing =
  Test.make ~name:"fig8/9: NBTI-aware ST sizing point"
    (Staged.stage (fun () ->
         let spec = Sleep.St_sizing.make_spec ~vth_st:0.25 () in
         let dvth =
           Sleep.St_sizing.dvth_st params spec ~schedule:(Sleep.St_sizing.st_schedule ())
             ~time:ten_years
         in
         ignore (Sleep.St_sizing.wl_nbti_aware spec ~i_on:1e-3 ~dvth)))

let t_slope_sta =
  Test.make
    ~name:"ablation6: slope-resolved STA pass on c432 [arena walk, loads + cell-model delays per call]"
    (Staged.stage (fun () ->
         ignore
           (Compiled.Timing.analyze_slopes tech (Lazy.force c432) ~temp_k:400.0
              ~stage_dvth:Compiled.Timing.no_aging ())))

let t_snm =
  Test.make ~name:"ext8: butterfly SNM extraction (Seevinck)"
    (Staged.stage
       (let cell = Sram.Cell6t.make () in
        fun () ->
          ignore
            (Sram.Cell6t.static_noise_margin cell ~dvth_left:0.02 ~dvth_right:0.0 ~temp_k:400.0
               ~mode:`Read)))

let t_seq_sp =
  Test.make ~name:"ext10: sequential SP fixed point (counter16)"
    (Staged.stage
       (let c = Sequential.counter ~bits:16 in
        fun () -> ignore (Sequential.steady_state_sp c ~input_sp:[| 0.5 |] ())))

let t_activity =
  Test.make ~name:"ext9: 64-pair activity estimation on c432 [compiled arena, warm]"
    (Staged.stage
       (let rng = Physics.Rng.create ~seed:9 in
        fun () ->
          let net = Lazy.force c432 in
          ignore
            (Logic.Activity.monte_carlo net ~rng
               ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5) ~n_pairs:64)))

let t_grid =
  Test.make ~name:"ext7: 4x4 thermal grid steady state"
    (Staged.stage
       (let g = Thermal.Grid.create () in
        let p = Array.make (Thermal.Grid.n_blocks g) 6.0 in
        fun () -> ignore (Thermal.Grid.steady_state g ~powers:p)))

let t_liberty =
  Test.make ~name:"interop: Liberty render of the full library"
    (Staged.stage (fun () ->
         ignore (Cell.Liberty.to_string tech (Cell.Characterize.library_characterization tech ()))))

let t_verilog =
  Test.make ~name:"interop: Verilog render of c432"
    (Staged.stage (fun () -> ignore (Circuit.Verilog.to_string (Lazy.force c432))))

let tests =
  Test.make_grouped ~name:"nbti-repro"
    [
      t_dvth; t_sn_recursion; t_trace; t_thermal; t_lut; t_generate; t_logic_sim; t_sp; t_sta;
      t_aging; t_mlv; t_leakage; t_variation_sample; t_st_sizing; t_slope_sta; t_snm; t_seq_sp;
      t_activity; t_grid; t_liberty; t_verilog;
    ]

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let per_instance = List.map (fun instance -> Analyze.all ols instance raw) instances in
  Analyze.merge ols instances per_instance

let run () =
  Format.printf "Bechamel wall-clock suite (monotonic clock, ns/run):@.@.";
  let results = benchmark () in
  Hashtbl.iter
    (fun measure by_test ->
      if measure = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun name result ->
            match Bechamel.Analyze.OLS.estimates result with
            | Some [ est ] -> Format.printf "  %-55s %12.1f ns/run@." name est
            | _ -> Format.printf "  %-55s (no estimate)@." name)
          by_test)
    results;
  Format.printf "@."

(* --- machine-readable output (the bench record) --- *)

module Json = Obs.Json

(* One file, BENCH.json: a schema tag and a [history] array with one
   entry per --perf-json run, oldest first. Its first four entries are
   the per-PR records BENCH_PR{3,6,7,8}.json, each tagged with that file
   name under ["source"]; later entries only add sections. *)
let bench_record = "BENCH.json"
let record_schema = "nbti-bench/history"

let read_history path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  Json.to_list (Json.member "history" (Json.of_string text))

(* One entry per line, each printed by the codec, so a run appends a
   line. *)
let write_history path entries =
  let oc = open_out path in
  Printf.fprintf oc "{\"schema\":%s,\"history\":[\n%s\n]}\n"
    (Json.to_string (Json.String record_schema))
    (String.concat ",\n" (List.map Json.to_string entries));
  close_out oc

let ns_estimates () =
  let results = benchmark () in
  let acc = ref [] in
  Hashtbl.iter
    (fun measure by_test ->
      if measure = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun name result ->
            match Bechamel.Analyze.OLS.estimates result with
            | Some [ est ] -> acc := (name, est) :: !acc
            | _ -> ())
          by_test)
    results;
  List.sort compare !acc

let time_it f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* The gates' fixed workload: a 500-sample c432 variation study. *)
let variation_samples = 500

type parallel_case = {
  case_domains : int;
  variation_s : float;
  signal_prob_s : float;
  mlv_s : float;
}

(* Best-of-N wall time: the compiled hot paths finish a 500-sample c432
   study in milliseconds, so single-shot timings are scheduler noise;
   the min over a few runs is what the scaling gate compares. *)
let best_of n f =
  let best = ref infinity and last = ref None in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    let v = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    last := Some v
  done;
  (Option.get !last, !best)

(* The acceptance workload: the 500-sample c432 variation study plus the
   two other parallel hot paths, each timed at 1, 2 and 4 domains against
   a dedicated pool, with the results compared structurally across the
   domain counts — the speedup claim is only meaningful if the outputs
   are bit-identical. *)
let parallel_cases () =
  let net = Lazy.force c432 in
  let sp = Lazy.force c432_sp in
  let tables = Lazy.force c432_tables in
  let input_sp = Logic.Signal_prob.uniform_inputs net 0.5 in
  let n_samples = variation_samples in
  let aging = Aging.Circuit_aging.default_config () in
  let var_config = Variation.Process_var.default_config ~n_samples aging in
  let one pool =
    let study, variation_s =
      best_of 3 (fun () ->
          Variation.Process_var.run ~pool var_config net ~node_sp:sp
            ~standby:Aging.Circuit_aging.Standby_all_stressed ~rng:(Physics.Rng.create ~seed:12))
    in
    let mc, signal_prob_s =
      best_of 3 (fun () ->
          Logic.Signal_prob.monte_carlo ~pool net ~rng:(Physics.Rng.create ~seed:7) ~input_sp
            ~n_vectors:16384)
    in
    let mlv, mlv_s =
      time_it (fun () ->
          Ivc.Mlv.probability_based ~par:pool tables net ~rng:(Physics.Rng.create ~seed:4) ())
    in
    ( (study.Variation.Process_var.samples, mc, fst mlv),
      { case_domains = Parallel.Pool.domains pool; variation_s; signal_prob_s; mlv_s } )
  in
  let cases = List.map (fun domains -> Parallel.Pool.with_pool ~domains one) [ 1; 2; 4 ] in
  let bit_identical =
    match List.map fst cases with [] -> true | r1 :: rest -> List.for_all (( = ) r1) rest
  in
  (n_samples, List.map snd cases, bit_identical)

(* --- PR6: parallel-scaling gate --- *)

type scaling_verdict = {
  host_cores : int;
  speedup2 : float;
  speedup4 : float;
  gate_enforced : bool;  (* true iff the host can physically show scaling *)
  gate_passed : bool;
  gate_detail : string;
  measured_recommended_domains : int;  (* fastest domain count on this host *)
}

(* The PR3 pathology this PR fixes: 2 domains ran the variation study at
   0.37x of 1 domain (0.22x at 4). On a multicore host the gate demands
   real scaling (>= 1.5x at 2 domains, no regression from 2 to 4). A
   single-core host cannot show a speedup no matter how good the
   runtime is — and it pays a real oversubscription tax: the sampler
   still allocates per sample (about 3.4k minor words on c432, none of
   them in the RNG state since it went unboxed), so minor
   collections are frequent, and each one is a stop-the-world sync
   across every domain time-slicing the one core. That tax is
   proportional to work, not a fixed cost, so the floor is calibrated
   to what a healthy pool measures under oversubscription (~0.55-0.75x
   at 2 domains, ~0.35-0.4x at 4) with headroom over the PR3 pathology:
   >= 0.50x at 2 domains and >= 0.30x at 4, recorded as not-enforced
   so a multicore CI host still applies the strict gate. *)
let scaling_verdict cases =
  let host_cores = Domain.recommended_domain_count () in
  let time_at d =
    match List.find_opt (fun c -> c.case_domains = d) cases with
    | Some c -> c.variation_s
    | None -> invalid_arg "scaling_verdict: missing domain case"
  in
  let t1 = time_at 1 in
  let speedup d = t1 /. Float.max 1e-12 (time_at d) in
  let speedup2 = speedup 2 and speedup4 = speedup 4 in
  let fastest =
    List.fold_left
      (fun best c -> if c.variation_s < (time_at best) then c.case_domains else best)
      1 cases
  in
  let gate_enforced = host_cores >= 2 in
  let gate_passed, gate_detail =
    if gate_enforced then begin
      let pass2 = speedup2 >= 1.5 in
      let monotone = host_cores < 4 || speedup4 >= speedup2 in
      ( pass2 && monotone,
        Printf.sprintf
          "multicore host (%d cores): require speedup2 >= 1.5 (got %.2f) and, with >= 4 cores, \
           speedup4 >= speedup2 (got %.2f)"
          host_cores speedup2 speedup4 )
    end
    else begin
      let pass = speedup2 >= 0.50 && speedup4 >= 0.30 in
      ( pass,
        Printf.sprintf
          "single-core host: strict >= 1.5x gate not enforceable; oversubscription floor \
           speedup2 >= 0.50 (got %.2f) and speedup4 >= 0.30 (got %.2f)"
          speedup2 speedup4 )
    end
  in
  {
    host_cores;
    speedup2;
    speedup4;
    gate_enforced;
    gate_passed;
    gate_detail;
    measured_recommended_domains = fastest;
  }

(* --- PR6: compiled single-thread speedups vs the PR3 boxed baselines --- *)

(* The ns/run of the two PR 3 kernels the compiled core must beat by
   >= 3x single-threaded, read from the bench record's entry migrated
   from BENCH_PR3.json (1,740,786.0 and 343,619.2 ns). [Error] names
   what is missing. *)
let pr3_source = "BENCH_PR3.json"

let pr3_baseline () =
  let missing what = failwith (Printf.sprintf "%s: %s" bench_record what) in
  try
    let entry =
      match
        List.find_opt
          (fun e -> Json.member "source" e = Json.String pr3_source)
          (read_history bench_record)
      with
      | Some e -> e
      | None -> missing ("no history entry from " ^ pr3_source)
    in
    let ns kernel =
      match Json.member ("nbti-repro/" ^ kernel) (Json.member "ns_per_run" entry) with
      | Json.Null ->
        missing (Printf.sprintf "the entry from %s has no ns_per_run for %S" pr3_source kernel)
      | v -> Json.to_float v
    in
    Ok
      ( ns "fig12: one Monte-Carlo variation sample on c432",
        ns "table4: fresh STA pass on c432" )
  with
  | Failure m | Sys_error m -> Error m
  | Json.Parse_error m | Json.Type_error m -> Error (bench_record ^ ": " ^ m)

let pr3_baseline_or_exit () =
  match pr3_baseline () with
  | Ok b -> b
  | Error m ->
    Format.eprintf "BENCH FAILURE: no PR 3 baseline: %s@." m;
    exit 1

let min_time_ns ~repeats ~batch f =
  for _ = 1 to 3 do
    f ()
  done;
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best /. float_of_int batch *. 1e9

type speedup_case = { kernel : string; pr3_ns : float; pr6_ns : float; speedup : float }

let speedups_vs_pr3 (pr3_variation_sample_ns, pr3_fresh_sta_ns) =
  Parallel.Pool.with_pool ~domains:1 @@ fun pool ->
  let net = Lazy.force c432 in
  let sp = Lazy.force c432_sp in
  let aging = Aging.Circuit_aging.default_config () in
  let var_config = Variation.Process_var.default_config ~n_samples:2 aging in
  let rng = Physics.Rng.create ~seed:12 in
  (* The exact shapes of the PR3 bechamel kernels, now running on the
     compiled backends: the whole Process_var.run call (2 samples, as in
     the PR3 kernel) and the fresh STA pass including the cache lookups
     a steady-state caller pays. *)
  let variation_ns =
    min_time_ns ~repeats:15 ~batch:20 (fun () ->
        ignore
          (Variation.Process_var.run ~pool var_config net ~node_sp:sp
             ~standby:Aging.Circuit_aging.Standby_all_stressed ~rng))
  in
  let fresh_sta_ns =
    min_time_ns ~repeats:15 ~batch:100 (fun () ->
        let a = Compiled.Arena.get net in
        let tm = Compiled.Timing.get a ~tech ~temp_k:400.0 () in
        ignore (Compiled.Timing.fresh_result tm))
  in
  let case kernel pr3_ns pr6_ns =
    { kernel; pr3_ns; pr6_ns; speedup = pr3_ns /. Float.max 1e-3 pr6_ns }
  in
  [
    case "fig12: one Monte-Carlo variation sample on c432 [compiled, arena + memos warm]"
      (pr3_variation_sample_ns /. 2.0) (variation_ns /. 2.0);
    case "table4: fresh STA pass on c432 [compiled, arena + timing memo lookups]" pr3_fresh_sta_ns
      fresh_sta_ns;
  ]

(* --- PR7: calibration throughput --- *)

type calibration_case = {
  cal_domains : int;
  cal_wall_s : float;
  cal_samples_per_s : float;  (* retained posterior draws per second *)
}

(* The calibrate wire op's compute kernel: 4 adaptive MH chains over the
   standard 54-point synthetic campaign. Chains are the unit of
   parallelism (chunk 1), so 4 domains is the saturation point and the
   posterior must be bit-identical at every domain count. *)
let calibration_cases () =
  let data = Calibrate.Synth.generate ~seed:7 () in
  let config = Calibrate.Engine.default_config in
  let total = config.Calibrate.Engine.n_chains * config.Calibrate.Engine.samples in
  let run domains =
    Parallel.Pool.with_pool ~domains @@ fun pool ->
    ignore (Calibrate.Engine.run ~pool config data);
    let best = ref infinity and posterior = ref None in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      let p = Calibrate.Engine.run ~pool config data in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      if !posterior = None then posterior := Some p
    done;
    (!best, Option.get !posterior)
  in
  let raw = List.map (fun d -> (d, run d)) [ 1; 2; 4 ] in
  let draws (_, (_, p)) = p.Calibrate.Posterior.draws in
  let head = List.hd raw in
  let bit_identical = List.for_all (fun c -> draws c = draws head) raw in
  ( List.map
      (fun (d, (wall, _)) ->
        {
          cal_domains = d;
          cal_wall_s = wall;
          cal_samples_per_s = float_of_int total /. Float.max 1e-12 wall;
        })
      raw,
    bit_identical )

type tracing_overhead = {
  off_s : float;
  on_s : float;
  overhead_pct : float;
  overhead_s : float;
  prop_s : float;  (* collector installed AND a distributed-trace context active *)
  prop_pct : float;
  prop_overhead_s : float;
}

(* Minimum over repeated batched runs. "off" is the instrumented build
   with no collector installed (the state every non-traced run pays
   for); "on" installs a live collector, which additionally records the
   aging/STA spans. The acceptance bound is on the *installed* cost —
   the disabled cost is a single atomic load and sits inside measurement
   noise. The compiled core pushed the memoized analyze hot path from
   ~1 ms down to ~20 us, so a purely relative bound would gate a
   handful of ~0.5 us span records against a microsecond denominator;
   the gate therefore passes on either < 3% relative overhead or < 5 us
   absolute overhead per analyze (a few spans' worth). *)
let tracing_overhead () =
  let net = Lazy.force c432 in
  let sp = Lazy.force c432_sp in
  let aging = Aging.Circuit_aging.default_config () in
  let run () =
    ignore
      (Aging.Circuit_aging.analyze aging net ~node_sp:sp
         ~standby:Aging.Circuit_aging.Standby_all_stressed ())
  in
  let min_time ~repeats ~batch =
    let best = ref infinity in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to batch do
        run ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. float_of_int batch
  in
  for _ = 1 to 5 do
    run ()
  done;
  let repeats = 15 and batch = 25 in
  let off_s = min_time ~repeats ~batch in
  let collector = Obs.Trace.create () in
  Obs.Trace.install collector;
  let on_s =
    Fun.protect ~finally:Obs.Trace.uninstall (fun () -> min_time ~repeats ~batch)
  in
  (* Propagation on: same collector, plus an installed trace context —
     the state a request handled by the server/router runs under. Root
     spans now parent onto the remote span and carry the trace id, which
     is the extra cost context propagation adds per span. *)
  Obs.Trace.install collector;
  let prop_s =
    Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
        Obs.Ctx.with_trace
          { Obs.Ctx.trace_id = Obs.Trace.new_trace_id (); parent_span = Some "deadbeefcafe0123" }
          (fun () -> min_time ~repeats ~batch))
  in
  let pct v = (v -. off_s) /. Float.max 1e-12 off_s *. 100.0 in
  {
    off_s;
    on_s;
    overhead_pct = pct on_s;
    overhead_s = on_s -. off_s;
    prop_s;
    prop_pct = pct prop_s;
    prop_overhead_s = prop_s -. off_s;
  }

(* The 3%-or-5us acceptance bound, applied both to a bare collector and
   to collector-plus-propagation-context (the fleet configuration).
   Returns false on failure (caller exits). *)
let check_tracing_gate tr =
  Format.printf "  tracing: analyze %.3f ms off, %.3f ms on (%+.2f%%, %+.1f us)@."
    (tr.off_s *. 1e3) (tr.on_s *. 1e3) tr.overhead_pct (tr.overhead_s *. 1e6);
  Format.printf "  tracing: analyze %.3f ms with propagation context (%+.2f%%, %+.1f us)@."
    (tr.prop_s *. 1e3) tr.prop_pct (tr.prop_overhead_s *. 1e6);
  let ok = ref true in
  if tr.overhead_pct >= 3.0 && tr.overhead_s >= 5e-6 then begin
    Format.eprintf
      "BENCH FAILURE: tracing overhead %.2f%% >= 3%% and %.1f us >= 5 us on the analyze hot \
       path@."
      tr.overhead_pct (tr.overhead_s *. 1e6);
    ok := false
  end;
  if tr.prop_pct >= 3.0 && tr.prop_overhead_s >= 5e-6 then begin
    Format.eprintf
      "BENCH FAILURE: propagation overhead %.2f%% >= 3%% and %.1f us >= 5 us on the analyze \
       hot path@."
      tr.prop_pct (tr.prop_overhead_s *. 1e6);
    ok := false
  end;
  !ok

(* --- PR8: GC pressure on the Monte-Carlo variation hot path --- *)

type gc_pressure = { gc_samples : int; minor_words_per_sample : float }

(* Gc.minor_words around the variation study at 1 domain: the pool runs
   all work on the calling domain there (workers = domains - 1), so the
   counter sees every allocation of the hot path. The measured run is
   the exact acceptance workload — same seed, same sample count — so
   the measurement cannot perturb any RNG stream; a warm-up run first
   keeps lazy/cache initialization off the bill. *)
let variation_gc_pressure () =
  Parallel.Pool.with_pool ~domains:1 @@ fun pool ->
  let net = Lazy.force c432 in
  let sp = Lazy.force c432_sp in
  let n_samples = variation_samples in
  let aging = Aging.Circuit_aging.default_config () in
  let var_config = Variation.Process_var.default_config ~n_samples aging in
  let run () =
    ignore
      (Variation.Process_var.run ~pool var_config net ~node_sp:sp
         ~standby:Aging.Circuit_aging.Standby_all_stressed ~rng:(Physics.Rng.create ~seed:12))
  in
  run ();
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  run ();
  let w1 = Gc.minor_words () in
  { gc_samples = n_samples; minor_words_per_sample = (w1 -. w0) /. float_of_int n_samples }

(* --- PR8: incremental single-PI-flip re-analysis gate --- *)

type incremental_case = {
  inc_circuit : string;
  inc_gates : int;
  full_pass_s : float;  (* one full compiled aging analysis, memo defeated *)
  flip_s : float;  (* mean per single-PI-flip session re-analysis *)
  inc_speedup : float;
  inc_cone_frac : float;  (* mean visited cone as a fraction of the arena *)
  inc_bit_identical : bool;  (* vs full recompute, at 1/2/4 domains *)
}

let net_name (net : Circuit.Netlist.t) = net.Circuit.Netlist.name

(* The 10^4-gate generated DAG from the compiled-core acceptance suite. *)
let dag10k =
  lazy
    (Circuit.Generators.random_dag
       { Circuit.Generators.name = "dag10k"; n_pi = 64; n_po = 32; n_gates = 10_000; seed = 42 })

let incremental_ctx_of net =
  let config = Aging.Circuit_aging.default_config () in
  let tables =
    Leakage.Circuit_leakage.build_tables config.Aging.Circuit_aging.tech net ~temp_k:400.0
  in
  let node_sp =
    Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5)
  in
  let ctx =
    Compiled.Incremental.Analysis.ctx
      ~currents:(Leakage.Circuit_leakage.node_currents tables net)
      ~shifts:(Aging.Circuit_aging.shifts config (Compiled.Arena.get net) ~node_sp)
      ()
  in
  (ctx, tables, config, node_sp)

(* One incremental case. [full_pass_s] is the per-call minimum of the
   full compiled aging analysis over a rotation of 20 distinct standby
   vectors — more than the 16-entry shape memo holds, so every call
   recomputes every gate's duty, R-D shift and aged delay from scratch:
   exactly what an edit-heavy caller pays without sessions. [flip_s] is
   the mean cost of one single-PI-flip re-analysis (flip + cone
   propagation + leakage/aged/max-dvth folds) in a resident session,
   over rounds that flip each probed PI twice so every round ends where
   it started; best round wins. Bit-identity is checked separately at
   1/2/4 domains: the same edited vectors, pushed through per-chunk
   sessions exactly as Ivc.Co_opt does, must reproduce the full
   Circuit_aging.analyze + standby_leakage oracle bit-for-bit at every
   domain count. *)
let incremental_case net =
  let name = net_name net in
  let n_pi = Array.length (Circuit.Netlist.primary_inputs net) in
  let ctx, tables, config, node_sp = incremental_ctx_of net in
  let rng = Physics.Rng.create ~seed:88 in
  let full_vectors =
    Array.init 20 (fun _ -> Array.init n_pi (fun _ -> Physics.Rng.bool rng))
  in
  let full_pass_s = ref infinity in
  for _round = 1 to 3 do
    Array.iter
      (fun v ->
        let t0 = Unix.gettimeofday () in
        ignore
          (Aging.Circuit_aging.analyze config net ~node_sp
             ~standby:(Aging.Circuit_aging.Standby_vector v) ());
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !full_pass_s then full_pass_s := dt)
      full_vectors
  done;
  let s = Compiled.Incremental.Analysis.session ctx in
  Compiled.Incremental.Analysis.set_vector s (Array.make n_pi false);
  let flips = min n_pi 50 in
  let flip_s = ref infinity in
  for _round = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _pass = 1 to 2 do
      for k = 0 to flips - 1 do
        Compiled.Incremental.Analysis.flip_pi s k
      done
    done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int (2 * flips) in
    if dt < !flip_s then flip_s := dt
  done;
  let st = Compiled.Incremental.Analysis.stats s in
  let inc_cone_frac =
    Compiled.Incremental.cone_size st
    /. float_of_int (Compiled.Incremental.Analysis.n_nodes s)
  in
  (* Bit-identity workload: a dozen standby vectors, each one flip from
     the previous, evaluated through chunked sessions at each domain
     count and against the full-pass oracle. *)
  let rng = Physics.Rng.create ~seed:89 in
  let cur = Array.make n_pi false in
  let vectors =
    Array.init 12 (fun _ ->
        let k = Physics.Rng.int rng n_pi in
        cur.(k) <- not cur.(k);
        Array.copy cur)
  in
  let bits = Int64.bits_of_float in
  let oracle =
    Array.map
      (fun v ->
        let r =
          Aging.Circuit_aging.analyze config net ~node_sp
            ~standby:(Aging.Circuit_aging.Standby_vector v) ()
        in
        ( bits r.Aging.Circuit_aging.aged.Compiled.Timing.max_delay,
          bits r.Aging.Circuit_aging.degradation,
          bits r.Aging.Circuit_aging.max_dvth,
          bits (Leakage.Circuit_leakage.standby_leakage tables net ~vector:v) ))
      vectors
  in
  let at_domains domains =
    Parallel.Pool.with_pool ~domains @@ fun p ->
    let n = Array.length vectors in
    let out = Array.make n (0L, 0L, 0L, 0L) in
    let chunk = max 1 ((n + Parallel.Pool.domains p - 1) / Parallel.Pool.domains p) in
    Parallel.Pool.iter_ranges p ~chunk n (fun lo hi ->
        let s = Compiled.Incremental.Analysis.session ctx in
        for i = lo to hi - 1 do
          Compiled.Incremental.Analysis.set_vector s vectors.(i);
          out.(i) <-
            ( bits (Compiled.Incremental.Analysis.aged_delay s),
              bits (Compiled.Incremental.Analysis.degradation s),
              bits (Compiled.Incremental.Analysis.max_dvth s),
              bits (Compiled.Incremental.Analysis.leakage s) )
        done);
    out
  in
  let inc_bit_identical = List.for_all (fun d -> at_domains d = oracle) [ 1; 2; 4 ] in
  {
    inc_circuit = name;
    inc_gates = Circuit.Netlist.n_gates net;
    full_pass_s = !full_pass_s;
    flip_s = !flip_s;
    inc_speedup = !full_pass_s /. Float.max 1e-12 !flip_s;
    inc_cone_frac;
    inc_bit_identical;
  }

let incremental_cases () =
  List.map incremental_case [ Circuit.Generators.by_name "c7552"; Lazy.force dag10k ]

let check_incremental_gates cases =
  let ok = ref true in
  List.iter
    (fun c ->
      Format.printf
        "  incremental %-8s (%d gates): full pass %8.3f ms, single-PI flip %8.1f us (x%.0f, \
         cone %.2f%%), bit-identical at 1/2/4 domains: %b%s@."
        c.inc_circuit c.inc_gates (c.full_pass_s *. 1e3) (c.flip_s *. 1e6) c.inc_speedup
        (c.inc_cone_frac *. 100.0) c.inc_bit_identical
        (if c.inc_speedup >= 10.0 && c.inc_bit_identical then "" else "  FAIL");
      if c.inc_speedup < 10.0 then begin
        Format.eprintf "BENCH FAILURE: incremental %s only x%.1f vs full pass (need >= 10x)@."
          c.inc_circuit c.inc_speedup;
        ok := false
      end;
      if not c.inc_bit_identical then begin
        Format.eprintf
          "BENCH FAILURE: incremental %s differs from full recompute across domain counts@."
          c.inc_circuit;
        ok := false
      end)
    cases;
  !ok

let print_cases cases base =
  List.iter
    (fun c ->
      Format.printf "  %d domain(s): variation %.3f s (x%.2f), signal-prob %.3f s, mlv %.3f s@."
        c.case_domains c.variation_s
        (base.variation_s /. Float.max 1e-12 c.variation_s)
        c.signal_prob_s c.mlv_s)
    cases

(* Shared gate checks: print verdicts, return true when everything the
   host can enforce passed. *)
let check_gates ~bit_identical ~(verdict : scaling_verdict) ~speedups =
  let ok = ref true in
  if not bit_identical then begin
    Format.eprintf "BENCH FAILURE: parallel results differ across domain counts@.";
    ok := false
  end;
  Format.printf "  scaling gate (%s): %s@."
    (if verdict.gate_enforced then "enforced" else "single-core floor")
    (if verdict.gate_passed then "pass" else "FAIL");
  Format.printf "    %s@." verdict.gate_detail;
  Format.printf "    fastest domain count on this host: %d@."
    verdict.measured_recommended_domains;
  if not verdict.gate_passed then begin
    Format.eprintf "BENCH FAILURE: %s@." verdict.gate_detail;
    ok := false
  end;
  List.iter
    (fun s ->
      Format.printf "  vs PR3 %-50s %10.0f -> %8.0f ns (x%.1f)%s@." s.kernel s.pr3_ns s.pr6_ns
        s.speedup
        (if s.speedup >= 3.0 then "" else "  FAIL (< 3x)");
      if s.speedup < 3.0 then begin
        Format.eprintf "BENCH FAILURE: compiled %s only x%.2f vs PR3 (need >= 3x)@." s.kernel
          s.speedup;
        ok := false
      end)
    speedups;
  !ok

let run_json ~path =
  (* Read both records first, so a missing baseline or a malformed
     record fails before minutes of measurement. *)
  let baseline = pr3_baseline_or_exit () in
  let history = if Sys.file_exists path then read_history path else [] in
  Format.printf "Bechamel estimates (this takes a few seconds per kernel)...@.";
  let estimates = ns_estimates () in
  (* Settle the heap after bechamel's allocation churn so the scaling
     measurement is not paying its garbage down. *)
  Gc.compact ();
  Format.printf "Parallel section: c432 hot paths at 1/2/4 domains...@.";
  let n_samples, cases, bit_identical = parallel_cases () in
  let verdict = scaling_verdict cases in
  Format.printf "Compiled-core section: single-thread kernels vs PR3 baselines...@.";
  let speedups = speedups_vs_pr3 baseline in
  Format.printf "Calibration section: 4-chain posterior at 1/2/4 domains...@.";
  let cal_cases, cal_bit_identical = calibration_cases () in
  Format.printf "Incremental section: single-PI-flip re-analysis on c7552 and dag10k...@.";
  let inc_cases = incremental_cases () in
  Format.printf "GC section: minor words per Monte-Carlo variation sample...@.";
  let gc = variation_gc_pressure () in
  Format.printf "Tracing section: analyze hot path with collector off vs. on...@.";
  let tr = tracing_overhead () in
  let base =
    match cases with
    | c :: _ -> c
    | [] -> assert false
  in
  let cal_base = List.hd cal_cases in
  let f x = Json.Float x and int n = Json.Int n and bool v = Json.Bool v in
  let entry =
    Json.Assoc
      [
        ("source", Json.String "bench --perf-json");
        ("host_cores", int verdict.host_cores);
        ("recommended_domains", int verdict.measured_recommended_domains);
        ("variation_samples", int n_samples);
        ("ns_per_run", Json.Assoc (List.map (fun (name, est) -> (name, f est)) estimates));
        ( "speedup_vs_pr3",
          Json.List
            (List.map
               (fun s ->
                 Json.Assoc
                   [
                     ("kernel", Json.String s.kernel);
                     ("pr3_ns", f s.pr3_ns);
                     ("pr6_ns", f s.pr6_ns);
                     ("speedup", f s.speedup);
                   ])
               speedups) );
        ( "parallel",
          Json.Assoc
            [
              ("bit_identical_across_domain_counts", bool bit_identical);
              ( "scaling_gate",
                Json.Assoc
                  [
                    ("enforced", bool verdict.gate_enforced);
                    ("passed", bool verdict.gate_passed);
                    ("detail", Json.String verdict.gate_detail);
                  ] );
              ( "cases",
                Json.List
                  (List.map
                     (fun c ->
                       Json.Assoc
                         [
                           ("domains", int c.case_domains);
                           ("variation_s", f c.variation_s);
                           ("signal_prob_s", f c.signal_prob_s);
                           ("mlv_s", f c.mlv_s);
                           ( "variation_speedup_vs_1",
                             f (base.variation_s /. Float.max 1e-12 c.variation_s) );
                         ])
                     cases) );
            ] );
        ( "calibration",
          Json.Assoc
            [
              ("bit_identical_across_domain_counts", bool cal_bit_identical);
              ( "cases",
                Json.List
                  (List.map
                     (fun c ->
                       Json.Assoc
                         [
                           ("domains", int c.cal_domains);
                           ("wall_s", f c.cal_wall_s);
                           ("posterior_samples_per_s", f c.cal_samples_per_s);
                           ( "speedup_vs_1",
                             f (cal_base.cal_wall_s /. Float.max 1e-12 c.cal_wall_s) );
                         ])
                     cal_cases) );
            ] );
        ( "incremental",
          Json.Assoc
            [
              ( "cases",
                Json.List
                  (List.map
                     (fun c ->
                       Json.Assoc
                         [
                           ("circuit", Json.String c.inc_circuit);
                           ("gates", int c.inc_gates);
                           ("full_pass_s", f c.full_pass_s);
                           ("flip_s", f c.flip_s);
                           ("speedup", f c.inc_speedup);
                           ("cone_frac", f c.inc_cone_frac);
                           ("bit_identical_at_1_2_4_domains", bool c.inc_bit_identical);
                         ])
                     inc_cases) );
            ] );
        ( "variation_gc",
          Json.Assoc
            [
              ("samples", int gc.gc_samples);
              ("minor_words_per_sample", f gc.minor_words_per_sample);
            ] );
        ( "tracing",
          Json.Assoc
            [
              ("analyze_off_s", f tr.off_s);
              ("analyze_on_s", f tr.on_s);
              ("overhead_pct", f tr.overhead_pct);
              ("overhead_s", f tr.overhead_s);
              ("analyze_propagation_s", f tr.prop_s);
              ("propagation_pct", f tr.prop_pct);
              ("propagation_s", f tr.prop_overhead_s);
            ] );
      ]
  in
  write_history path (history @ [ entry ]);
  Format.printf "@.%s: entry %d of the history written:@." path (List.length history + 1);
  print_cases cases base;
  Format.printf "  results bit-identical across domain counts: %b@." bit_identical;
  List.iter
    (fun c ->
      Format.printf "  calibration at %d domain(s): %.3f s, %.0f posterior samples/s@."
        c.cal_domains c.cal_wall_s c.cal_samples_per_s)
    cal_cases;
  Format.printf "  calibration bit-identical across domain counts: %b@." cal_bit_identical;
  let gates_ok = check_gates ~bit_identical ~verdict ~speedups in
  let gates_ok =
    if cal_bit_identical then gates_ok
    else begin
      Format.eprintf "BENCH FAILURE: calibration posteriors differ across domain counts@.";
      false
    end
  in
  let gates_ok = check_incremental_gates inc_cases && gates_ok in
  Format.printf "  variation GC: %.0f minor words per sample (%d samples)@."
    gc.minor_words_per_sample gc.gc_samples;
  let tracing_ok = check_tracing_gate tr in
  if not (gates_ok && tracing_ok) then exit 1

(* The fast subset for `make scaling-gate`: parallel cases + the compiled
   speedup kernels, no bechamel estimates, no tracing section. *)
let run_scaling_gate () =
  let baseline = pr3_baseline_or_exit () in
  Format.printf "Scaling gate: c432 hot paths at 1/2/4 domains...@.";
  let _, cases, bit_identical = parallel_cases () in
  let verdict = scaling_verdict cases in
  let speedups = speedups_vs_pr3 baseline in
  let base = match cases with c :: _ -> c | [] -> assert false in
  print_cases cases base;
  Format.printf "  results bit-identical across domain counts: %b@." bit_identical;
  if not (check_gates ~bit_identical ~verdict ~speedups) then exit 1;
  Format.printf "scaling gate: OK@."

(* The fast subset for `make incremental-gate`: just the single-PI-flip
   speedup and 1/2/4-domain bit-identity section; non-zero exit on any
   failure. *)
let run_incremental_gate () =
  Format.printf "Incremental gate: single-PI-flip re-analysis on c7552 and dag10k...@.";
  let cases = incremental_cases () in
  if not (check_incremental_gates cases) then exit 1;
  Format.printf "incremental gate: OK@."

(* The fast subset for `make obs-gate`: just the tracing-overhead bound,
   with and without a propagation context installed. *)
let run_obs_gate () =
  Format.printf "Observability gate: analyze hot path, collector off / on / propagating...@.";
  let tr = tracing_overhead () in
  if not (check_tracing_gate tr) then exit 1;
  Format.printf "observability gate: OK@."
