(* Calibration engine tests: Stats helpers, dataset parsing, synthetic
   ground-truth recovery, domain-count determinism, sampler health, the
   R-D bridge, and the calibrate wire op (cache, deadline, errors). *)

let check_float = Alcotest.(check (float 1e-12))

(* --- Physics.Stats helpers --- *)

let test_weighted_quantile () =
  let xs = [| 3.0; 1.0; 4.0; 1.5; 9.0; 2.6; 5.3; 5.8; 9.7; 9.3 |] in
  let uniform = Array.make (Array.length xs) 1.0 in
  (* equal weights agree with the unweighted percentile to interpolation
     convention: both land inside the same order-statistic bracket *)
  List.iter
    (fun q ->
      let w = Physics.Stats.weighted_quantile xs ~weights:uniform ~q in
      let sorted = Array.copy xs in
      Array.sort compare sorted;
      let lo = sorted.(Stdlib.max 0 (int_of_float (Float.round (q *. 10.)) - 1)) in
      let hi = sorted.(Stdlib.min 9 (int_of_float (Float.round (q *. 10.)))) in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f in bracket [%g, %g], got %g" q lo hi w)
        true
        (w >= lo -. 1e-12 && w <= hi +. 1e-12))
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ];
  (* extremes *)
  check_float "q=0 is min" 1.0 (Physics.Stats.weighted_quantile xs ~weights:uniform ~q:0.0);
  check_float "q=1 is max" 9.7 (Physics.Stats.weighted_quantile xs ~weights:uniform ~q:1.0);
  (* a dominant weight pins the quantile to its sample *)
  let xs = [| 1.0; 2.0; 3.0 |] in
  let w = [| 0.01; 0.98; 0.01 |] in
  check_float "dominant weight" 2.0 (Physics.Stats.weighted_quantile xs ~weights:w ~q:0.5);
  (* zero-weight samples are invisible *)
  let q =
    Physics.Stats.weighted_quantile [| 1.0; 100.0; 2.0 |] ~weights:[| 1.0; 0.0; 1.0 |] ~q:1.0
  in
  check_float "zero weight excluded from q=1" 2.0 q

let test_hdi () =
  (* a tight cluster plus one outlier: the 60% HDI must stay in the cluster *)
  let xs = [| 0.9; 1.0; 1.1; 1.2; 10.0 |] in
  let lo, hi = Physics.Stats.hdi xs ~level:0.6 in
  Alcotest.(check bool) "hdi avoids outlier" true (lo >= 0.9 && hi <= 1.2);
  Alcotest.(check bool) "hdi ordered" true (lo <= hi);
  let lo, hi = Physics.Stats.hdi xs ~level:1.0 in
  check_float "full hdi lo" 0.9 lo;
  check_float "full hdi hi" 10.0 hi

let test_ess () =
  let n = 4000 in
  let rng = Physics.Rng.create ~seed:11 in
  let iid = Array.init n (fun _ -> Physics.Rng.gaussian rng ~mean:0.0 ~sigma:1.0) in
  let e_iid = Physics.Stats.ess iid in
  Alcotest.(check bool)
    (Printf.sprintf "iid ESS near n (%g of %d)" e_iid n)
    true
    (e_iid > 0.6 *. float_of_int n);
  (* AR(1) with rho = 0.95 has tau ~ (1+rho)/(1-rho) = 39 *)
  let rho = 0.95 in
  let ar = Array.make n 0.0 in
  for i = 1 to n - 1 do
    ar.(i) <- (rho *. ar.(i - 1)) +. Physics.Rng.gaussian rng ~mean:0.0 ~sigma:1.0
  done;
  let e_ar = Physics.Stats.ess ar in
  Alcotest.(check bool)
    (Printf.sprintf "AR(1) ESS much smaller (%g)" e_ar)
    true
    (e_ar < 0.1 *. float_of_int n);
  Alcotest.(check bool) "ESS >= 1" true (e_ar >= 1.0);
  check_float "lag-0 autocorrelation" 1.0 (Physics.Stats.autocorrelation iid ~lag:0);
  Alcotest.(check bool) "AR(1) lag-1 autocorrelation near rho" true
    (Float.abs (Physics.Stats.autocorrelation ar ~lag:1 -. rho) < 0.05);
  check_float "constant series ESS = n" 5.0 (Physics.Stats.ess (Array.make 5 3.0))

(* --- Dataset --- *)

let test_dataset_csv () =
  let data = Calibrate.Synth.generate ~seed:3 () in
  let csv = Calibrate.Dataset.to_csv data in
  (match Calibrate.Dataset.of_csv csv with
  | Ok d ->
    Alcotest.(check bool) "CSV round-trips bit-exactly" true (d = data);
    Alcotest.(check string) "digest stable" (Calibrate.Dataset.digest data)
      (Calibrate.Dataset.digest d)
  | Error { Calibrate.Dataset.message; _ } -> Alcotest.fail message);
  (* comments and blank lines are skipped *)
  (match Calibrate.Dataset.of_csv ("# a comment\n\n" ^ csv) with
  | Ok d -> Alcotest.(check bool) "comments skipped" true (d = data)
  | Error { Calibrate.Dataset.message; _ } -> Alcotest.fail message)

let test_dataset_errors () =
  let expect_line expected csv =
    match Calibrate.Dataset.of_csv csv with
    | Ok _ -> Alcotest.fail "expected a parse error"
    | Error { Calibrate.Dataset.line; _ } ->
      Alcotest.(check (option int)) "error line number" expected line
  in
  (* line 3 has a non-numeric field *)
  expect_line (Some 3) "time_s,temp_k,vdd_v,dvth_v\n1e3,400,1.0,0.01\n1e4,oops,1.0,0.02\n";
  (* line 2 has too few columns *)
  expect_line (Some 2) "time_s,temp_k,vdd_v,dvth_v\n1e3,400\n";
  (* line 4 has a non-positive stress condition *)
  expect_line (Some 4) "# c\n1e3,400,1.0,0.01\n\n1e4,-5,1.0,0.02\n";
  (* no data rows at all: dataset-level error *)
  expect_line None "time_s,temp_k,vdd_v,dvth_v\n# nothing\n"

(* --- Synthetic recovery --- *)

let truth = Calibrate.Synth.default_truth

let recovery_config =
  { Calibrate.Engine.default_config with Calibrate.Engine.seed = 42 }

let recovery_data = lazy (Calibrate.Synth.generate ~seed:7 ())

let test_recovery_within_ci () =
  let posterior = Calibrate.Engine.run recovery_config (Lazy.force recovery_data) in
  let want = Calibrate.Model.to_array truth in
  Array.iteri
    (fun i (p : Calibrate.Posterior.param_summary) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: truth %g in 95%% CI [%g, %g]" p.Calibrate.Posterior.name want.(i)
           p.Calibrate.Posterior.ci_lo p.Calibrate.Posterior.ci_hi)
        true
        (want.(i) >= p.Calibrate.Posterior.ci_lo && want.(i) <= p.Calibrate.Posterior.ci_hi);
      (match p.Calibrate.Posterior.rhat with
      | Some r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: rhat %g converged" p.Calibrate.Posterior.name r)
          true (r < 1.35)
      | None -> Alcotest.fail "MH summaries carry rhat");
      Alcotest.(check bool)
        (Printf.sprintf "%s: ess %g usable" p.Calibrate.Posterior.name p.Calibrate.Posterior.ess)
        true
        (p.Calibrate.Posterior.ess > 20.0))
    posterior.Calibrate.Posterior.params

let test_acceptance_in_range () =
  let posterior = Calibrate.Engine.run recovery_config (Lazy.force recovery_data) in
  Alcotest.(check int) "one rate per chain" recovery_config.Calibrate.Engine.n_chains
    (Array.length posterior.Calibrate.Posterior.accept_rates);
  Array.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "tuned acceptance %g in [0.05, 0.6]" r)
        true
        (r >= 0.05 && r <= 0.6))
    posterior.Calibrate.Posterior.accept_rates

let test_importance_cross_check () =
  let config =
    {
      recovery_config with
      Calibrate.Engine.sampler = Calibrate.Engine.Importance { particles = 4000 };
    }
  in
  let posterior = Calibrate.Engine.run config (Lazy.force recovery_data) in
  (match posterior.Calibrate.Posterior.weight_ess with
  | Some e ->
    Alcotest.(check bool) (Printf.sprintf "weight ESS %g usable" e) true (e > 10.0)
  | None -> Alcotest.fail "SNIS posterior carries weight ESS");
  (* the cross-check samplers agree on the well-identified parameters *)
  let mh = Calibrate.Engine.run recovery_config (Lazy.force recovery_data) in
  Array.iteri
    (fun i (p : Calibrate.Posterior.param_summary) ->
      let m = mh.Calibrate.Posterior.params.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: SNIS mean %g within 4 MH posterior sd of %g"
           p.Calibrate.Posterior.name p.Calibrate.Posterior.mean m.Calibrate.Posterior.mean)
        true
        (Float.abs (p.Calibrate.Posterior.mean -. m.Calibrate.Posterior.mean)
        < 4.0 *. m.Calibrate.Posterior.sd))
    posterior.Calibrate.Posterior.params

(* --- Determinism across domain counts --- *)

let test_bit_identical_across_domains () =
  (* a shorter run: determinism is scheduling-structural, not length-dependent *)
  let config =
    {
      recovery_config with
      Calibrate.Engine.warmup = 300;
      samples = 200;
      predict = [| (Physics.Units.ten_years, 400.0, 1.0) |];
    }
  in
  let data = Lazy.force recovery_data in
  let run domains =
    Parallel.Pool.with_pool ~domains (fun pool -> Calibrate.Engine.run ~pool config data)
  in
  let p1 = run 1 and p2 = run 2 and p4 = run 4 in
  Alcotest.(check bool) "posterior draws identical 1 vs 2 domains" true
    (p1.Calibrate.Posterior.draws = p2.Calibrate.Posterior.draws);
  Alcotest.(check bool) "posterior draws identical 1 vs 4 domains" true
    (p1.Calibrate.Posterior.draws = p4.Calibrate.Posterior.draws);
  Alcotest.(check bool) "full posterior identical across domain counts" true
    (p1 = p2 && p2 = p4)

(* --- Engine validation and fingerprints --- *)

let test_engine_validation () =
  let expect_invalid c =
    match Calibrate.Engine.validate c with
    | Ok () -> Alcotest.fail "expected a validation error"
    | Error _ -> ()
  in
  let d = Calibrate.Engine.default_config in
  expect_invalid { d with Calibrate.Engine.n_chains = 0 };
  expect_invalid { d with Calibrate.Engine.samples = 0 };
  expect_invalid { d with Calibrate.Engine.thin = 0 };
  expect_invalid { d with Calibrate.Engine.ci_level = 1.0 };
  expect_invalid { d with Calibrate.Engine.warmup = max_int / 8 };
  expect_invalid
    { d with Calibrate.Engine.sampler = Calibrate.Engine.Importance { particles = 0 } };
  expect_invalid { d with Calibrate.Engine.predict = [| (0.0, 400.0, 1.0) |] };
  (match Calibrate.Engine.validate d with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* fingerprints separate configs that compute different posteriors *)
  let fp = Calibrate.Engine.fingerprint in
  Alcotest.(check string) "fingerprint stable" (fp d) (fp d);
  Alcotest.(check bool) "seed changes fingerprint" true
    (fp d <> fp { d with Calibrate.Engine.seed = 43 });
  Alcotest.(check bool) "sampler changes fingerprint" true
    (fp d <> fp { d with Calibrate.Engine.sampler = Calibrate.Engine.Importance { particles = 1000 } })

(* --- The R-D bridge --- *)

let test_rd_bridge_anchored () =
  let tech = Device.Tech.ptm_90nm in
  let params = Calibrate.Model.to_tech_params ~tech truth in
  (* at the anchored reference (V_gs = vdd, T = 400 K) the R-D prediction
     equals the JEP law at every time *)
  List.iter
    (fun time ->
      let rd =
        Nbti.Rd_model.dvth_dc params tech ~vgs:tech.Device.Tech.vdd
          ~vth0:tech.Device.Tech.vth_p ~temp_k:400.0 ~time
      in
      let jep =
        Calibrate.Model.predict truth ~time_s:time ~temp_k:400.0 ~vdd_v:tech.Device.Tech.vdd
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "bridge agrees at t=%g s" time)
        jep rd)
    [ 1.0; 1e4; Physics.Units.ten_years ];
  (* the Arrhenius factor carries over: agreement holds off-reference in T *)
  let rd330 =
    Nbti.Rd_model.dvth_dc params tech ~vgs:tech.Device.Tech.vdd ~vth0:tech.Device.Tech.vth_p
      ~temp_k:330.0 ~time:1e6
  in
  let jep330 = Calibrate.Model.predict truth ~time_s:1e6 ~temp_k:330.0 ~vdd_v:tech.Device.Tech.vdd in
  Alcotest.(check (float 1e-9)) "bridge agrees at 330 K" jep330 rd330

(* --- The calibrate wire op --- *)

let dispatch t line = Server.Json.of_string (Server.Service.handle_line t line)

let expect_ok t line =
  match Server.Protocol.response_result (dispatch t line) with
  | Ok r -> r
  | Error (code, m) -> Alcotest.fail (code ^ ": " ^ m)

let calibrate_request ?(timeout_ms = "") ?(extra = "") () =
  let data = Calibrate.Synth.generate ~seed:7 () in
  let csv = String.concat "\\n" (String.split_on_char '\n' (Calibrate.Dataset.to_csv data)) in
  Printf.sprintf
    "{\"v\":1,\"op\":\"calibrate\",\"csv\":\"%s\",\"chains\":2,\"warmup\":300,\"samples\":200%s%s}"
    csv timeout_ms extra

let test_wire_calibrate_roundtrip () =
  let t = Server.Service.create () in
  let result = expect_ok t (calibrate_request ()) in
  let open Server.Json in
  Alcotest.(check string) "kind" "calibration" (to_string_exn (member "kind" result));
  Alcotest.(check string) "sampler" "mh" (to_string_exn (member "sampler" result));
  Alcotest.(check bool) "not cached on first call" false (to_bool (member "cached" result));
  let params = member "params" result in
  Array.iter
    (fun name ->
      let p = member name params in
      Alcotest.(check bool) (name ^ " has finite mean") true
        (Float.is_finite (to_float (member "mean" p))))
    Calibrate.Model.param_names;
  Alcotest.(check bool) "rd bridge present" true (member_opt "rd_params" result <> None);
  (* an identical request is served from the result cache, bit-identically *)
  let again = expect_ok t (calibrate_request ()) in
  Alcotest.(check bool) "cached on repeat" true (to_bool (member "cached" again));
  let without_cached j =
    Server.Json.Assoc (List.filter (fun (k, _) -> k <> "cached") (to_assoc j))
  in
  Alcotest.(check bool) "cached result identical" true
    (without_cached result = without_cached again);
  (* a different seed is a different cache entry *)
  let other = expect_ok t (calibrate_request ~extra:",\"seed\":99" ()) in
  Alcotest.(check bool) "new config computes fresh" false (to_bool (member "cached" other));
  (* the op shows up in stats: per-endpoint metrics and the ops table *)
  let stats = expect_ok t "{\"v\":1,\"op\":\"stats\"}" in
  let endpoints = member "endpoints" stats in
  Alcotest.(check bool) "calibrate endpoint metrics" true
    (member_opt "calibrate" endpoints <> None);
  Alcotest.(check bool) "calibrate latency recorded" true
    (to_int (member "requests" (member "calibrate" endpoints)) >= 3);
  Alcotest.(check bool) "ops table lists calibrate" true
    (member_opt "calibrate" (member "ops" stats) <> None)

let test_wire_calibrate_deadline () =
  let t = Server.Service.create () in
  (* a large warmup against a 1 ms budget: the in-chain poll must abandon
     the sampler mid-flight with a structured deadline error *)
  let line =
    let data = Calibrate.Synth.generate ~seed:7 () in
    let csv = String.concat "\\n" (String.split_on_char '\n' (Calibrate.Dataset.to_csv data)) in
    Printf.sprintf
      "{\"v\":1,\"op\":\"calibrate\",\"csv\":\"%s\",\"chains\":4,\"warmup\":2000000,\"samples\":1000,\"timeout_ms\":1}"
      csv
  in
  let t0 = Unix.gettimeofday () in
  let response = dispatch t line in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match Server.Protocol.response_result response with
  | Ok _ -> Alcotest.fail "expected deadline_exceeded"
  | Error (code, _) -> Alcotest.(check string) "deadline_exceeded" "deadline_exceeded" code);
  Alcotest.(check bool)
    (Printf.sprintf "abandoned promptly (%.0f ms)" (elapsed *. 1000.0))
    true (elapsed < 2.0);
  (* the service stays healthy afterwards *)
  ignore (expect_ok t "{\"v\":1,\"op\":\"health\"}")

let test_wire_calibrate_errors () =
  let t = Server.Service.create () in
  let expect_error expected_code line =
    match Server.Protocol.response_result (dispatch t line) with
    | Ok _ -> Alcotest.fail ("expected " ^ expected_code ^ " for " ^ line)
    | Error (code, _) -> Alcotest.(check string) "code" expected_code code
  in
  (* malformed CSV: invalid_request with the 1-based line number detail *)
  let bad = "{\"v\":1,\"op\":\"calibrate\",\"csv\":\"1e3,400,1.0,0.01\\n1e4,broken,1.0,0.02\"}" in
  let response = dispatch t bad in
  (match Server.Protocol.response_result response with
  | Ok _ -> Alcotest.fail "expected a CSV error"
  | Error (code, _) -> Alcotest.(check string) "invalid_request" "invalid_request" code);
  Alcotest.(check (option int)) "line detail" (Some 2)
    (Server.Protocol.error_detail_int response "line");
  (* no measurements at all *)
  expect_error "bad_request" "{\"v\":1,\"op\":\"calibrate\"}";
  (* config limits are enforced before sampling: a field's own bound
     names the field, the cross-field iteration cap stays a bad_request *)
  expect_error "invalid_request"
    "{\"v\":1,\"op\":\"calibrate\",\"csv\":\"1e3,400,1.0,0.01\",\"chains\":100000}";
  expect_error "bad_request"
    "{\"v\":1,\"op\":\"calibrate\",\"csv\":\"1e3,400,1.0,0.01\",\"chains\":64,\"samples\":1000000}";
  (* unknown op: structured invalid_request listing the supported ops *)
  let unknown = dispatch t "{\"v\":1,\"op\":\"teleport\"}" in
  (match Server.Protocol.response_result unknown with
  | Ok _ -> Alcotest.fail "expected invalid_request"
  | Error (code, _) -> Alcotest.(check string) "unknown op code" "invalid_request" code);
  let supported =
    match Server.Json.member_opt "error" unknown with
    | Some err -> begin
      match Server.Json.member_opt "supported_ops" err with
      | Some (Server.Json.List ops) ->
        List.filter_map
          (function Server.Json.String s -> Some s | _ -> None)
          ops
      | _ -> Alcotest.fail "unknown-op error lists supported_ops"
    end
    | None -> Alcotest.fail "error object present"
  in
  Alcotest.(check bool) "calibrate advertised" true (List.mem "calibrate" supported);
  Alcotest.(check (list string)) "table is the wire table" Server.Protocol.supported_ops supported

let test_calibrate_cache_key () =
  let data = Calibrate.Synth.generate ~seed:7 () in
  let other = Calibrate.Synth.generate ~seed:8 () in
  let spec config dataset = { Server.Protocol.dataset; config } in
  let d = Calibrate.Engine.default_config in
  let key = Server.Protocol.calibrate_cache_key in
  Alcotest.(check string) "stable" (key (spec d data)) (key (spec d data));
  Alcotest.(check bool) "dataset changes key" true
    (key (spec d data) <> key (spec d other));
  Alcotest.(check bool) "config changes key" true
    (key (spec d data) <> key (spec { d with Calibrate.Engine.seed = 1 } data))

let () =
  Alcotest.run "calibrate"
    [
      ( "stats",
        [
          Alcotest.test_case "weighted quantile" `Quick test_weighted_quantile;
          Alcotest.test_case "highest-density interval" `Quick test_hdi;
          Alcotest.test_case "autocorrelation ESS" `Quick test_ess;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "CSV round-trip" `Quick test_dataset_csv;
          Alcotest.test_case "errors carry line numbers" `Quick test_dataset_errors;
        ] );
      ( "inference",
        [
          Alcotest.test_case "recovers truth within 95% CIs" `Slow test_recovery_within_ci;
          Alcotest.test_case "tuned acceptance in range" `Slow test_acceptance_in_range;
          Alcotest.test_case "importance sampling cross-check" `Slow test_importance_cross_check;
          Alcotest.test_case "bit-identical at 1/2/4 domains" `Slow test_bit_identical_across_domains;
          Alcotest.test_case "config validation and fingerprints" `Quick test_engine_validation;
          Alcotest.test_case "R-D bridge anchored" `Quick test_rd_bridge_anchored;
        ] );
      ( "server",
        [
          Alcotest.test_case "wire round-trip and cache" `Slow test_wire_calibrate_roundtrip;
          Alcotest.test_case "deadline exceeded mid-sampling" `Quick test_wire_calibrate_deadline;
          Alcotest.test_case "error paths" `Quick test_wire_calibrate_errors;
          Alcotest.test_case "cache key" `Quick test_calibrate_cache_key;
        ] );
    ]
