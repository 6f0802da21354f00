(* Equivalence suite for the compiled struct-of-arrays netlist core:
   every compiled hot path must be bit-identical to its boxed-DAG
   reference (the [Oracle] library kept for exactly this purpose) — on
   logic evaluation (scalar and 64-lane packed), Monte-Carlo signal
   probabilities and activity, the duty tables, fresh/aged STA and the
   platform analysis built on them, the process-variation
   study and the MLV leakage search — across the ISCAS85 unit-test
   suite plus a >= 10^4-gate generated DAG, at 1, 2 and 4 domains. *)

let with_pool = Parallel.Pool.with_pool

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let check_floats_exact name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) (Printf.sprintf "%s [%d]" name i) true (bits_equal x b.(i)))
    a

(* The circuits under test: the fast ISCAS85 subset plus a generated DAG
   an order of magnitude past the largest structural bench, to exercise
   the arena's CSR layout well beyond hand-sized circuits. *)
let big_profile =
  {
    Circuit.Generators.name = "dag10k";
    n_pi = 64;
    n_po = 32;
    n_gates = 10_000;
    seed = 42;
  }

let big = lazy (Circuit.Generators.random_dag big_profile)

let small = lazy (Circuit.Generators.small_suite ())
let all_nets = lazy (Lazy.force small @ [ Lazy.force big ])

let net_name (net : Circuit.Netlist.t) = net.Circuit.Netlist.name

(* --- logic evaluation: scalar and packed --- *)

let random_inputs rng n = Array.init n (fun _ -> Physics.Rng.bool rng)

let test_eval_scalar () =
  let rng = Physics.Rng.create ~seed:17 in
  List.iter
    (fun net ->
      let a = Compiled.Arena.get net in
      let n_pi = Array.length (Circuit.Netlist.primary_inputs net) in
      let vals = Array.make a.Compiled.Arena.n_nodes 0 in
      let idxs = Array.make a.Compiled.Arena.n_nodes 0 in
      for trial = 1 to 16 do
        let inputs = random_inputs rng n_pi in
        let expect = Logic.Eval.eval net ~inputs in
        Compiled.Arena.eval_bool a ~inputs ~vals ~idxs;
        Array.iteri
          (fun id v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s trial %d node %d" (net_name net) trial id)
              v
              (vals.(id) = 1))
          expect
      done)
    (Lazy.force all_nets)

let split_word w =
  ( Int64.to_int (Int64.logand w 0xFFFFFFFFL),
    Int64.to_int (Int64.shift_right_logical w 32) )

let join_word lo hi =
  Int64.logor (Int64.of_int (lo land 0xFFFFFFFF)) (Int64.shift_left (Int64.of_int hi) 32)

let test_eval_packed () =
  let rng = Physics.Rng.create ~seed:23 in
  List.iter
    (fun net ->
      let a = Compiled.Arena.get net in
      let n = a.Compiled.Arena.n_nodes in
      let words =
        Array.init (Array.length a.Compiled.Arena.pis) (fun _ -> Physics.Rng.int64 rng)
      in
      let expect = Oracle.Eval.eval_packed net ~inputs:words in
      let lo = Array.make n 0 and hi = Array.make n 0 in
      Array.iteri
        (fun k id ->
          let l, h = split_word words.(k) in
          lo.(id) <- l;
          hi.(id) <- h)
        a.Compiled.Arena.pis;
      Compiled.Arena.eval_packed a ~lo ~hi;
      for id = 0 to n - 1 do
        Alcotest.(check int64)
          (Printf.sprintf "%s packed node %d" (net_name net) id)
          expect.(id)
          (join_word lo.(id) hi.(id))
      done)
    (Lazy.force all_nets)

(* --- Monte-Carlo signal probability and activity --- *)

let test_signal_prob_mc () =
  List.iter
    (fun net ->
      let input_sp = Logic.Signal_prob.uniform_inputs net 0.4 in
      let boxed =
        Oracle.Signal_prob.monte_carlo net ~rng:(Physics.Rng.create ~seed:7) ~input_sp
          ~n_vectors:4096
      in
      List.iter
        (fun domains ->
          with_pool ~domains (fun pool ->
              let compiled =
                Logic.Signal_prob.monte_carlo ~pool net ~rng:(Physics.Rng.create ~seed:7)
                  ~input_sp ~n_vectors:4096
              in
              check_floats_exact
                (Printf.sprintf "%s sp @ %d domains" (net_name net) domains)
                boxed compiled))
        [ 1; 2; 4 ])
    (Lazy.force all_nets)

let test_activity_mc () =
  List.iter
    (fun net ->
      let input_sp = Logic.Signal_prob.uniform_inputs net 0.5 in
      let boxed =
        Oracle.Activity.monte_carlo net ~rng:(Physics.Rng.create ~seed:9) ~input_sp
          ~n_pairs:2048
      in
      List.iter
        (fun domains ->
          with_pool ~domains (fun pool ->
              let compiled =
                Logic.Activity.monte_carlo ~pool net ~rng:(Physics.Rng.create ~seed:9)
                  ~input_sp ~n_pairs:2048
              in
              check_floats_exact
                (Printf.sprintf "%s activity @ %d domains" (net_name net) domains)
                boxed compiled))
        [ 1; 2; 4 ])
    (Lazy.force all_nets)

(* --- fresh/aged STA through the aging analysis --- *)

let check_timing_result name (a : Compiled.Timing.result) (b : Compiled.Timing.result) =
  check_floats_exact (name ^ " arrival") a.Compiled.Timing.arrival b.Compiled.Timing.arrival;
  check_floats_exact (name ^ " gate_delay") a.Compiled.Timing.gate_delay b.Compiled.Timing.gate_delay;
  Alcotest.(check bool) (name ^ " max_delay") true
    (bits_equal a.Compiled.Timing.max_delay b.Compiled.Timing.max_delay);
  Alcotest.(check (list int)) (name ^ " critical_path") a.Compiled.Timing.critical_path
    b.Compiled.Timing.critical_path;
  Alcotest.(check int) (name ^ " critical_output") a.Compiled.Timing.critical_output
    b.Compiled.Timing.critical_output

let check_analysis name (a : Aging.Circuit_aging.analysis) (b : Aging.Circuit_aging.analysis) =
  check_timing_result (name ^ " fresh") a.Aging.Circuit_aging.fresh b.Aging.Circuit_aging.fresh;
  check_timing_result (name ^ " aged") a.Aging.Circuit_aging.aged b.Aging.Circuit_aging.aged;
  Alcotest.(check bool) (name ^ " degradation") true
    (bits_equal a.Aging.Circuit_aging.degradation b.Aging.Circuit_aging.degradation);
  Alcotest.(check bool) (name ^ " max_dvth") true
    (bits_equal a.Aging.Circuit_aging.max_dvth b.Aging.Circuit_aging.max_dvth)

(* Eight seeded random vectors plus the two bounding states. *)
let standby_states net =
  let n_pi = Array.length (Circuit.Netlist.primary_inputs net) in
  let rng = Physics.Rng.create ~seed:29 in
  ("worst", Aging.Circuit_aging.Standby_all_stressed)
  :: ("best", Aging.Circuit_aging.Standby_all_relaxed)
  :: List.init 8 (fun k ->
         (Printf.sprintf "vector %d" k, Aging.Circuit_aging.Standby_vector (random_inputs rng n_pi)))

(* The paper's setting, and one that moves every input of the shift
   pair: lifetime, schedule (RAS 1:1) and the NMOS tables (PBTI). *)
let aging_configs =
  [
    ("default", Aging.Circuit_aging.default_config ());
    ( "3y ras1:1 pbti0.5",
      Aging.Circuit_aging.default_config ~time:(Physics.Units.years 3.0) ~ras:(1.0, 1.0)
        ~pbti_scale:0.5 () );
  ]

(* Every field of [Flow.Platform.analyze] against the boxed composition:
   [Oracle.Circuit_aging.analyze], the boxed leakage folds and
   [Netlist.stats]. *)
let check_platform name net tables ~node_sp ~standby (boxed : Aging.Circuit_aging.analysis)
    (got : Flow.Platform.analysis) =
  let bits field a b = Alcotest.(check bool) (name ^ " " ^ field) true (bits_equal a b) in
  Alcotest.(check bool) (name ^ " stats") true (got.Flow.Platform.stats = Circuit.Netlist.stats net);
  bits "fresh_delay" boxed.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay got.Flow.Platform.fresh_delay;
  bits "aged_delay" boxed.Aging.Circuit_aging.aged.Compiled.Timing.max_delay got.Flow.Platform.aged_delay;
  bits "degradation" boxed.Aging.Circuit_aging.degradation got.Flow.Platform.degradation;
  bits "max_dvth" boxed.Aging.Circuit_aging.max_dvth got.Flow.Platform.max_dvth;
  bits "standby_leakage"
    (match standby with
    | Aging.Circuit_aging.Standby_vector vector ->
      Leakage.Circuit_leakage.standby_leakage tables net ~vector
    | Aging.Circuit_aging.Standby_all_stressed -> Leakage.Circuit_leakage.worst_standby_bound tables net
    | Aging.Circuit_aging.Standby_all_relaxed -> Leakage.Circuit_leakage.best_standby_bound tables net)
    got.Flow.Platform.standby_leakage;
  bits "active_leakage"
    (Leakage.Circuit_leakage.expected_leakage tables net ~node_sp)
    got.Flow.Platform.active_leakage

(* Per-gate delay scales (the dual-V_th hook): compiled fresh and aged
   passes against the boxed analyzer's [gate_scale] product, under the
   PMOS shifts of one standby state. *)
let check_scaled_timing name net aging ~node_sp ~standby ~scale =
  let tech = aging.Aging.Circuit_aging.tech in
  let temp_k = aging.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
  let stage_dvth = Aging.Circuit_aging.stage_dvth_map aging net ~node_sp ~standby in
  let a = Compiled.Arena.get net in
  let tm = Compiled.Timing.get a ~tech ~temp_k () in
  let gate_scale i = scale.(i) in
  check_timing_result (name ^ " scaled fresh")
    (Oracle.Timing.analyze tech net ~gate_scale ~temp_k ~stage_dvth:Compiled.Timing.no_aging ())
    (Compiled.Timing.fresh_result ~scale tm);
  check_timing_result (name ^ " scaled aged")
    (Oracle.Timing.analyze tech net ~gate_scale ~temp_k ~stage_dvth ())
    (Compiled.Timing.aged_result tm ~scale ~dvth:(Compiled.Arena.stage_values a stage_dvth) ())

let test_aging_analysis () =
  List.iter
    (fun net ->
      (* Scales around 1.0, exactly 1.0 on every fourth node. *)
      let rng = Physics.Rng.create ~seed:31 in
      let scale =
        Array.init (Circuit.Netlist.n_nodes net) (fun i ->
            if i mod 4 = 0 then 1.0 else 0.5 +. Physics.Rng.float rng 1.5)
      in
      List.iter
        (fun (cname, aging) ->
          let cfg =
            {
              (Flow.Platform.default_config ~aging ()) with
              Flow.Platform.sp_method = Flow.Platform.Sp_analytic;
            }
          in
          let p = Flow.Platform.prepare cfg net in
          let node_sp = Flow.Platform.node_sp p in
          List.iter
            (fun (sname, standby) ->
              let name = Printf.sprintf "%s/%s/%s" (net_name net) cname sname in
              (* Duties are clamped into [0, 1] where they are
                 produced, so every state answers on both paths — PBTI
                 on the 10^4-gate DAG included. *)
              let boxed = Oracle.Circuit_aging.analyze aging net ~node_sp ~standby () in
              let compiled = Aging.Circuit_aging.analyze aging net ~node_sp ~standby () in
              check_analysis name boxed compiled;
              check_scaled_timing name net aging ~node_sp ~standby ~scale;
              check_platform name net (Flow.Platform.tables p) ~node_sp ~standby boxed
                (Flow.Platform.analyze cfg p ~standby))
            (standby_states net))
        aging_configs)
    (Lazy.force all_nets)

(* The per-stage duty pairs the tables encode, (active, 1.0 or 0.0 by
   the stage's stress bit, mirrored across polarity for the bounding
   states), must be the rows of the boxed duty walk, and
   [Circuit_aging.duty_table], which reads them back out of the tables,
   must return those rows. *)
let test_duty_tables () =
  List.iter
    (fun net ->
      let a = Compiled.Arena.get net in
      let node_sp =
        Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5)
      in
      let idxs = Array.make a.Compiled.Arena.n_nodes 0 in
      let vals = Array.make a.Compiled.Arena.n_nodes 0 in
      List.iter
        (fun polarity ->
          let duty = Compiled.Duty.build a ~polarity ~node_sp in
          List.iter
            (fun (sname, standby) ->
              let rows = Oracle.Circuit_aging.duty_table ~polarity net ~node_sp ~standby in
              let read_back = Aging.Circuit_aging.duty_table ~polarity net ~node_sp ~standby in
              let stressed_bound =
                match (standby, polarity) with
                | Aging.Circuit_aging.Standby_vector inputs, _ ->
                  Compiled.Arena.eval_bool a ~inputs ~vals ~idxs;
                  None
                | Aging.Circuit_aging.Standby_all_stressed, `Pmos
                | Aging.Circuit_aging.Standby_all_relaxed, `Nmos -> Some 1.0
                | _ -> Some 0.0
              in
              Array.iteri
                (fun i row ->
                  Array.iteri
                    (fun s (active, standby_duty) ->
                      let flat = a.Compiled.Arena.stage_off.(i) + s in
                      let stb =
                        match stressed_bound with
                        | Some d -> d
                        | None ->
                          let mask =
                            duty.Compiled.Duty.stress.(a.Compiled.Arena.cell_of.(i)).(idxs.(i))
                          in
                          if (mask lsr s) land 1 = 1 then 1.0 else 0.0
                      in
                      let name =
                        Printf.sprintf "%s/%s/%s node %d stage %d" (net_name net)
                          (match polarity with `Pmos -> "pmos" | `Nmos -> "nmos")
                          sname i s
                      in
                      Alcotest.(check bool) (name ^ " active") true
                        (bits_equal active duty.Compiled.Duty.active.(flat));
                      Alcotest.(check bool) (name ^ " standby") true (bits_equal standby_duty stb);
                      let active', standby' = read_back.(i).(s) in
                      Alcotest.(check bool) (name ^ " read back") true
                        (bits_equal active active' && bits_equal standby_duty standby'))
                    row;
                  Alcotest.(check int)
                    (Printf.sprintf "%s node %d read-back stages" (net_name net) i)
                    (Array.length row) (Array.length read_back.(i)))
                rows)
            (standby_states net))
        [ `Pmos; `Nmos ])
    (Lazy.force all_nets)

let test_aging_analysis_pbti_and_load () =
  (* PBTI (NMOS aging) on, plus a non-default primary-output load:
     exercises the NMOS shape path and the po_load-keyed timing memo. *)
  let net = Circuit.Generators.by_name "c432" in
  let node_sp =
    Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5)
  in
  let config = Aging.Circuit_aging.default_config ~pbti_scale:0.5 () in
  let standby = Aging.Circuit_aging.Standby_all_relaxed in
  let boxed =
    Oracle.Circuit_aging.analyze config net ~po_load:5e-15 ~node_sp ~standby ()
  in
  let compiled =
    Aging.Circuit_aging.analyze config net ~po_load:5e-15 ~node_sp ~standby ()
  in
  check_analysis "c432 pbti+load" boxed compiled

(* --- process-variation Monte-Carlo --- *)

let check_study name (a : Variation.Process_var.study) (b : Variation.Process_var.study) =
  Alcotest.(check int) (name ^ " samples") (Array.length a.Variation.Process_var.samples)
    (Array.length b.Variation.Process_var.samples);
  Array.iteri
    (fun i (s : Variation.Process_var.sample) ->
      let t = b.Variation.Process_var.samples.(i) in
      Alcotest.(check bool) (Printf.sprintf "%s fresh %d" name i) true
        (bits_equal s.Variation.Process_var.fresh_delay t.Variation.Process_var.fresh_delay);
      Alcotest.(check bool) (Printf.sprintf "%s aged %d" name i) true
        (bits_equal s.Variation.Process_var.aged_delay t.Variation.Process_var.aged_delay))
    a.Variation.Process_var.samples;
  Alcotest.(check bool) (name ^ " summaries") true
    (a.Variation.Process_var.fresh = b.Variation.Process_var.fresh
    && a.Variation.Process_var.aged = b.Variation.Process_var.aged
    && a.Variation.Process_var.fresh_3sigma = b.Variation.Process_var.fresh_3sigma
    && a.Variation.Process_var.aged_3sigma = b.Variation.Process_var.aged_3sigma)

let test_process_var () =
  List.iter
    (fun net ->
      let node_sp =
        Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5)
      in
      let n_samples = if Circuit.Netlist.n_gates net > 1000 then 6 else 24 in
      let config =
        Variation.Process_var.default_config ~n_samples (Aging.Circuit_aging.default_config ())
      in
      let standby = Aging.Circuit_aging.Standby_all_stressed in
      let boxed =
        Oracle.Process_var.run config net ~node_sp ~standby
          ~rng:(Physics.Rng.create ~seed:3)
      in
      List.iter
        (fun domains ->
          with_pool ~domains (fun pool ->
              let compiled =
                Variation.Process_var.run ~pool config net ~node_sp ~standby
                  ~rng:(Physics.Rng.create ~seed:3)
              in
              check_study
                (Printf.sprintf "%s @ %d domains" (net_name net) domains)
                boxed compiled))
        [ 1; 2; 4 ])
    (Lazy.force all_nets)

(* --- MLV leakage search --- *)

let test_mlv_exhaustive_vs_evaluate () =
  (* The compiled exhaustive sweep must land on the same vector and the
     same leakage bits as a brute-force fold over the boxed evaluator. *)
  let net = Circuit.Generators.by_name "c17" in
  let tables = Leakage.Circuit_leakage.build_tables Device.Tech.ptm_90nm net ~temp_k:400.0 in
  let n_pi = Array.length (Circuit.Netlist.primary_inputs net) in
  let best = ref None in
  for v = 0 to (1 lsl n_pi) - 1 do
    let c = Ivc.Mlv.evaluate tables net (Logic.Eval.input_vector_of_int net v) in
    match !best with
    | Some (b : Ivc.Mlv.candidate) when b.Ivc.Mlv.leakage <= c.Ivc.Mlv.leakage -> ()
    | _ -> best := Some c
  done;
  let brute = Option.get !best in
  List.iter
    (fun domains ->
      with_pool ~domains (fun par ->
          let got = Ivc.Mlv.exhaustive ~par tables net in
          Alcotest.(check string)
            (Printf.sprintf "vector @ %d domains" domains)
            (Ivc.Mlv.vector_key brute.Ivc.Mlv.vector)
            (Ivc.Mlv.vector_key got.Ivc.Mlv.vector);
          Alcotest.(check bool) "leakage bits" true
            (bits_equal brute.Ivc.Mlv.leakage got.Ivc.Mlv.leakage)))
    [ 1; 2; 4 ]

(* The 64-lane leakage kernel: every lane bit-identical to the boxed
   [standby_leakage], at lane counts around the 32-bit word split. One
   scratch serves every sweep, so stale lanes of a wider sweep must not
   leak into a narrower one; slots outside the sweep stay untouched. *)
let test_lane_leakage () =
  let rng = Physics.Rng.create ~seed:41 in
  List.iter
    (fun net ->
      let a = Compiled.Arena.get net in
      let tables =
        Leakage.Circuit_leakage.build_tables Device.Tech.ptm_90nm net ~temp_k:400.0
      in
      let currents = Leakage.Circuit_leakage.node_currents tables net in
      let n_pi = Array.length a.Compiled.Arena.pis in
      let s = Compiled.Logic.lane_scratch a in
      List.iter
        (fun n_lanes ->
          let vs = Array.init n_lanes (fun _ -> random_inputs rng n_pi) in
          Array.iteri (fun lane v -> Compiled.Logic.load_vector a s ~lane v) vs;
          let off = 3 in
          let out = Array.make (off + n_lanes + 1) Float.nan in
          Compiled.Logic.sweep_leakage a ~currents s ~n_lanes out ~off;
          Array.iteri
            (fun l vector ->
              let expect = Leakage.Circuit_leakage.standby_leakage tables net ~vector in
              Alcotest.(check bool)
                (Printf.sprintf "%s lane %d of %d (%h vs %h)" (net_name net) l n_lanes expect
                   out.(off + l))
                true
                (bits_equal expect out.(off + l)))
            vs;
          Alcotest.(check bool)
            (Printf.sprintf "%s slots outside the sweep untouched" (net_name net))
            true
            (Float.is_nan out.(0) && Float.is_nan out.(off - 1) && Float.is_nan out.(off + n_lanes)))
        [ 64; 1; 31; 32; 33 ])
    (Lazy.force all_nets)

let test_mlv_candidates_match_boxed_evaluate () =
  (* Every candidate a compiled search reports must re-evaluate to the
     same leakage bits through the boxed [evaluate] — the compiled
     leakage sum is the boxed sum, term for term. *)
  List.iter
    (fun net ->
      let tables =
        Leakage.Circuit_leakage.build_tables Device.Tech.ptm_90nm net ~temp_k:400.0
      in
      let set, _stats =
        Ivc.Mlv.probability_based tables net ~rng:(Physics.Rng.create ~seed:4) ~pool:16
          ~max_rounds:4 ()
      in
      Alcotest.(check bool) (net_name net ^ " found candidates") true (set <> []);
      List.iter
        (fun (c : Ivc.Mlv.candidate) ->
          let again = Ivc.Mlv.evaluate tables net c.Ivc.Mlv.vector in
          Alcotest.(check bool)
            (Printf.sprintf "%s candidate leakage bits" (net_name net))
            true
            (bits_equal c.Ivc.Mlv.leakage again.Ivc.Mlv.leakage))
        set)
    (Lazy.force small)

(* [Oracle.Timing.loads] walks the boxed netlist's [fanout_pins];
   [Compiled.Timing.loads] runs the per-node step [node_load] that
   [build] and sizing sessions run over the arena's CSR fanout. Both
   fold each node's fanout in the same (consumer, pin) order, so every
   node's load, primary inputs included, is the same float — with the
   default primary-output load and with an explicit one. *)
let test_loads () =
  let tech = Device.Tech.ptm_90nm in
  List.iter
    (fun net ->
      let a = Compiled.Arena.get net in
      let cell g = a.Compiled.Arena.cells.(a.Compiled.Arena.cell_of.(g)).Compiled.Arena.cell in
      List.iter
        (fun po_load ->
          let boxed = Oracle.Timing.loads tech net ?po_load () in
          check_floats_exact (net_name net ^ " loads") boxed
            (Compiled.Timing.loads a ~tech ?po_load ());
          let tm = Compiled.Timing.get a ~tech ~temp_k:400.0 ?po_load () in
          for i = 0 to a.Compiled.Arena.n_nodes - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "%s node %d load bits" (net_name net) i)
              true
              (bits_equal boxed.(i)
                 (Compiled.Timing.node_load a ~tech ~po_load:tm.Compiled.Timing.po_load ~cell i))
          done)
        [ None; Some 3.0e-15 ])
    (Circuit.Generators.benchmark_suite () @ [ Lazy.force big ])

(* The slope-resolved pass on the arena ([Compiled.Timing.loads] and
   the fanin CSR) against the boxed netlist walk: every node's rise and
   fall bits and the latest output slope, fresh and aged under one
   standby state's PMOS shifts, each with and without NMOS shifts. *)
let test_slopes () =
  let tech = Device.Tech.ptm_90nm in
  let aging = Aging.Circuit_aging.default_config () in
  let standby = Aging.Circuit_aging.Standby_all_stressed in
  List.iter
    (fun net ->
      let node_sp =
        Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5)
      in
      let pmos = Aging.Circuit_aging.stage_dvth_map aging net ~node_sp ~standby in
      let nmos =
        Aging.Circuit_aging.stage_dvth_of_duties aging
          ~duties:(Aging.Circuit_aging.duty_table ~polarity:`Nmos net ~node_sp ~standby)
      in
      List.iter
        (fun (run, stage_dvth, stage_dvth_n) ->
          let name = net_name net ^ " " ^ run in
          let boxed =
            Oracle.Timing.analyze_slopes tech net ?stage_dvth_n ~temp_k:400.0 ~stage_dvth ()
          in
          let got =
            Compiled.Timing.analyze_slopes tech net ?stage_dvth_n ~temp_k:400.0 ~stage_dvth ()
          in
          check_floats_exact (name ^ " rise") boxed.Compiled.Timing.rise got.Compiled.Timing.rise;
          check_floats_exact (name ^ " fall") boxed.Compiled.Timing.fall got.Compiled.Timing.fall;
          Alcotest.(check bool) (name ^ " max_delay_rf") true
            (bits_equal boxed.Compiled.Timing.max_delay_rf got.Compiled.Timing.max_delay_rf))
        [
          ("fresh", Compiled.Timing.no_aging, None);
          ("aged", pmos, None);
          ("fresh, nmos shifted", Compiled.Timing.no_aging, Some nmos);
          ("aged, nmos shifted", pmos, Some nmos);
        ])
    (Circuit.Generators.benchmark_suite ())

(* The memo keeps the [capacity] most recently used values: a hit
   refreshes an entry, and an insert into a full memo evicts the entry
   looked up longest ago. *)
let test_memo_lru () =
  let memo = Parallel.Cache.create ~capacity:2 () in
  let builds = ref [] in
  let get k =
    fst
      (Parallel.Cache.find_or_add memo k (fun () ->
           builds := k :: !builds;
           String.uppercase_ascii k))
  in
  List.iter
    (fun k -> Alcotest.(check string) k (String.uppercase_ascii k) (get k))
    [ "a"; "b"; "a"; "c"; "a"; "b" ];
  Alcotest.(check (list string)) "built" [ "a"; "b"; "c"; "b" ] (List.rev !builds)

let () =
  Alcotest.run "compiled"
    [
      ( "logic",
        [
          Alcotest.test_case "scalar eval = boxed eval" `Quick test_eval_scalar;
          Alcotest.test_case "packed eval = boxed packed eval" `Quick test_eval_packed;
        ] );
      ( "monte-carlo",
        [
          Alcotest.test_case "signal-prob MC = boxed, 1/2/4 domains" `Quick test_signal_prob_mc;
          Alcotest.test_case "activity MC = boxed, 1/2/4 domains" `Quick test_activity_mc;
        ] );
      ( "sta",
        [
          Alcotest.test_case "aging analysis = boxed" `Quick test_aging_analysis;
          Alcotest.test_case "duty tables = boxed duty_table" `Quick test_duty_tables;
          Alcotest.test_case "pbti + po_load analysis = boxed" `Quick
            test_aging_analysis_pbti_and_load;
          Alcotest.test_case "loads = boxed loads, every node" `Quick test_loads;
          Alcotest.test_case "slope pass = boxed slope pass" `Quick test_slopes;
        ] );
      ( "variation",
        [ Alcotest.test_case "process-var study = boxed, 1/2/4 domains" `Quick test_process_var ] );
      ( "mlv",
        [
          Alcotest.test_case "exhaustive = brute-force boxed" `Quick
            test_mlv_exhaustive_vs_evaluate;
          Alcotest.test_case "search candidates re-evaluate bit-equal" `Quick
            test_mlv_candidates_match_boxed_evaluate;
          Alcotest.test_case "lane kernel = boxed standby_leakage" `Quick test_lane_leakage;
        ] );
      ("memo", [ Alcotest.test_case "keeps the most recently used" `Quick test_memo_lru ]);
    ]
