(* Golden digests of what the analysis paths produce: MD5s of served
   response bytes, and of the float bits of the mitigation, variation
   and power studies. The digests are recorded, not derived, so a
   refactor of any engine these paths run on must leave every one
   unchanged. *)

let tech = Device.Tech.ptm_90nm
let circuits = [ "c17"; "c432"; "c880"; "c6288" ]
let md5 s = Digest.to_hex (Digest.string s)

(* --- Served bytes --- *)

(* An alternating primary-input vector, "0101...", one bit per PI. *)
let vector circuit =
  let n = Circuit.Netlist.n_primary_inputs (Circuit.Generators.by_name circuit) in
  String.init n (fun i -> if i land 1 = 0 then '0' else '1')

let pbti = "\"config\":{\"pbti_scale\":0.5}"
let configs = [ ("default", ""); ("pbti", "," ^ pbti); ("1y", ",\"config\":{\"years\":1}") ]

let requests circuit =
  List.concat_map
    (fun standby ->
      List.map
        (fun (cname, config) ->
          ( Printf.sprintf "analyze %s %s" standby cname,
            Printf.sprintf "{\"v\":1,\"op\":\"analyze\",\"circuit\":%S,\"standby\":%S%s}" circuit
              (if standby = "vector" then vector circuit else standby)
              config ))
        configs)
    [ "worst"; "best"; "vector" ]
  @ [
      ( "ivc_search pbti",
        Printf.sprintf "{\"v\":1,\"op\":\"ivc_search\",\"circuit\":%S,%s}" circuit pbti );
    ]
  @ List.map
      (fun style ->
        ( "sleep_sizing " ^ style,
          Printf.sprintf "{\"v\":1,\"op\":\"sleep_sizing\",\"circuit\":%S,\"style\":%S}" circuit
            style ))
      [ "footer"; "header"; "both" ]

let calibrate_request =
  let data = Calibrate.Synth.generate ~seed:7 () in
  let csv = String.concat "\\n" (String.split_on_char '\n' (Calibrate.Dataset.to_csv data)) in
  Printf.sprintf
    "{\"v\":1,\"op\":\"calibrate\",\"csv\":\"%s\",\"chains\":2,\"warmup\":100,\"samples\":100}" csv

let batch_request =
  Printf.sprintf "{\"v\":1,\"op\":\"batch\",\"jobs\":[%s]}"
    (String.concat ","
       [
         "{\"op\":\"analyze\",\"circuit\":\"c17\",\"standby\":\"best\"}";
         "{\"op\":\"ivc_search\",\"circuit\":\"c432\",\"seed\":3}";
         "{\"op\":\"sleep_sizing\",\"circuit\":\"c880\",\"style\":\"header\"}";
         "{\"op\":\"analyze\",\"circuit\":\"c6288\",\"config\":{\"pbti_scale\":0.5,\"years\":1}}";
       ])

let served =
  [
    ("c17 analyze worst default", "9eb280e3cbd15c91c1213674d24e67a9");
    ("c17 analyze worst pbti", "a01b562a538d3c79aae886a56b175389");
    ("c17 analyze worst 1y", "aa9265fe8643b07cbd0ac4f660af6342");
    ("c17 analyze best default", "12de4c28b23d27ccb9ce2788af3d3759");
    ("c17 analyze best pbti", "04247a0856beb0336486dd1776b41561");
    ("c17 analyze best 1y", "63671afaac768c442a724440f23e2085");
    ("c17 analyze vector default", "dedd1f7f28ef659a0cfbd61b5ce41ced");
    ("c17 analyze vector pbti", "aba0b36886eb6280c55a04b7648b8966");
    ("c17 analyze vector 1y", "56c056018b4d37baaf6bd0150fcc86e4");
    ("c17 ivc_search pbti", "0dfd73cae566d0f35539f23e9c3b47b1");
    ("c17 sleep_sizing footer", "bb9c3b432abfe08910f86c7abf5f3025");
    ("c17 sleep_sizing header", "88ae62c2fd530f853d83c8d7e74fc5a9");
    ("c17 sleep_sizing both", "533fc2234b7012c93ec712c4788f45f7");
    ("c432 analyze worst default", "a53201664253c8ada2a9131ee0dc3f14");
    ("c432 analyze worst pbti", "844438ebd814e4406193a2e828714c0c");
    ("c432 analyze worst 1y", "b54e65a9ffd23b8fa1ae8a4890b71126");
    ("c432 analyze best default", "742649360cbe0b77c98ba3fd339339b6");
    ("c432 analyze best pbti", "39f3b77e0ed151bde6d7b05e2e533f12");
    ("c432 analyze best 1y", "fd5c308d5a614b720d0ebc45c9ea0d44");
    ("c432 analyze vector default", "7c4d0233d95021081754538ce0234808");
    ("c432 analyze vector pbti", "c7be476a302620f6bc5689d6891c1a0d");
    ("c432 analyze vector 1y", "363feaae45b87003f3e6a9bafa779642");
    ("c432 ivc_search pbti", "86ee3330d73ff23e7c1d2b7a434615a6");
    ("c432 sleep_sizing footer", "6bbda6f46340c3a654bde701bb4f121c");
    ("c432 sleep_sizing header", "48bd0df720d24658e2ca2b6ae20b0a08");
    ("c432 sleep_sizing both", "d9d163057287c2d071c1fb91861ed7d9");
    ("c880 analyze worst default", "03404397d91f9d6653590ad10a001e6c");
    ("c880 analyze worst pbti", "239be524f15b6c7d951719475d2453b8");
    ("c880 analyze worst 1y", "b90214e6cf128a5f431fbdf024bed2b5");
    ("c880 analyze best default", "60af0cf4d371314bf485614ad66d6f48");
    ("c880 analyze best pbti", "ece3156f8b41f886d012a609c14c00bc");
    ("c880 analyze best 1y", "c98ddc0834336a53487f2117777e189d");
    ("c880 analyze vector default", "51817c35e60169fa78447c48958a2b88");
    ("c880 analyze vector pbti", "286ab4eb7ec405fd85ccf6897780bbaf");
    ("c880 analyze vector 1y", "1f8019d1638edd9cb060106c8566dbdd");
    ("c880 ivc_search pbti", "2d1ccef5c2d6f0be4e4aae66c592b606");
    ("c880 sleep_sizing footer", "12da6e3783a265ce7fd2529e433feeb2");
    ("c880 sleep_sizing header", "c3621d101498243fb252915fc5ddd35b");
    ("c880 sleep_sizing both", "f5d6fc42afa7694c8c21bdc197a181a8");
    ("c6288 analyze worst default", "7187d2cfdbb961135e5730f697111271");
    ("c6288 analyze worst pbti", "6e8bf98779bbc59e9e095613f6ebab43");
    ("c6288 analyze worst 1y", "59e579ed5d99e1d5223266e1868003e2");
    ("c6288 analyze best default", "5ea87409f72a5c0fb1d02f4ae7fe52c6");
    ("c6288 analyze best pbti", "4495f4c54da0f8573ab128775b478c22");
    ("c6288 analyze best 1y", "5f36cd1ad8b17e8cbf9157fe486a1901");
    ("c6288 analyze vector default", "0b88a2d68af47e7566a7df21cde5ed6d");
    ("c6288 analyze vector pbti", "6c1f861f46984f6bd2b5b424cb5cc7b7");
    ("c6288 analyze vector 1y", "0838c20cc941faf8e991d5bc70145d02");
    ("c6288 ivc_search pbti", "a58ce7bcfc7dcd54c129d13f38810fbf");
    ("c6288 sleep_sizing footer", "b077c47818d5d21ad716d524d5c745c7");
    ("c6288 sleep_sizing header", "af9917f5d8ea19d7dc16a1d4615b0af7");
    ("c6288 sleep_sizing both", "aeace1eb9efd3d3f19b3946d20014563");
    ("calibrate", "07119157c0ce7e23d513d3ff4f710438");
    ("batch", "0546dae21879d6a8ec9567c5c7247d24");
  ]

let served_cases () =
  List.concat_map
    (fun circuit ->
      List.map (fun (name, line) -> (circuit ^ " " ^ name, line)) (requests circuit))
    circuits
  @ [ ("calibrate", calibrate_request); ("batch", batch_request) ]

let test_served_bytes () =
  (* One service per request: a digest never depends on which requests
     ran before it (the "cached" flag is part of the bytes). *)
  List.iter
    (fun (name, line) ->
      let svc = Server.Service.create () in
      let bytes = Server.Service.handle_line svc line in
      Alcotest.(check bool) (name ^ " ok") true
        (String.starts_with ~prefix:"{\"v\":1,\"ok\":true," bytes);
      Alcotest.(check string) name (List.assoc name served) (md5 bytes))
    (served_cases ())

(* --- Float bits of the studies --- *)

let digest_floats f =
  let b = Buffer.create 4096 in
  let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  f add;
  md5 (Buffer.contents b)

let setup circuit =
  let net = Circuit.Generators.by_name circuit in
  let input_sp = Logic.Signal_prob.uniform_inputs net 0.5 in
  (net, Logic.Signal_prob.analytic net ~input_sp, input_sp)

let aging = Aging.Circuit_aging.default_config ()
let stressed = Aging.Circuit_aging.Standby_all_stressed

let dual_vth ?timing_tolerance circuit =
  let net, node_sp, _ = setup circuit in
  let r =
    Mitigation.Dual_vth.optimize
      (Mitigation.Dual_vth.default_config ?timing_tolerance aging)
      net ~node_sp ~standby:stressed ()
  in
  digest_floats (fun add ->
      Array.iter (fun h -> add (if h then 1.0 else 0.0)) r.Mitigation.Dual_vth.assignment;
      List.iter add
        [
          float_of_int r.Mitigation.Dual_vth.n_hvt;
          float_of_int r.Mitigation.Dual_vth.iterations;
          r.Mitigation.Dual_vth.fresh_before;
          r.Mitigation.Dual_vth.fresh_after;
          r.Mitigation.Dual_vth.degradation_before;
          r.Mitigation.Dual_vth.degradation_after;
          r.Mitigation.Dual_vth.active_leakage_before;
          r.Mitigation.Dual_vth.active_leakage_after;
          r.Mitigation.Dual_vth.standby_leakage_before;
          r.Mitigation.Dual_vth.standby_leakage_after;
        ])

let gate_sizing circuit =
  let net, node_sp, _ = setup circuit in
  let r = Mitigation.Gate_sizing.optimize aging net ~node_sp ~standby:stressed () in
  digest_floats (fun add ->
      Array.iter add r.Mitigation.Gate_sizing.drives;
      List.iter add
        [
          float_of_int r.Mitigation.Gate_sizing.iterations;
          (if r.Mitigation.Gate_sizing.met then 1.0 else 0.0);
          r.Mitigation.Gate_sizing.fresh_before;
          r.Mitigation.Gate_sizing.aged_before;
          r.Mitigation.Gate_sizing.fresh_after;
          r.Mitigation.Gate_sizing.aged_after;
          r.Mitigation.Gate_sizing.target;
          r.Mitigation.Gate_sizing.area_overhead;
        ])

let ssta ~aged circuit =
  let net, node_sp, _ = setup circuit in
  let r = Variation.Ssta.analyze aging net ~sigma_vth:0.015 ~node_sp ~standby:stressed ~aged in
  digest_floats (fun add ->
      Array.iter
        (fun g ->
          add g.Variation.Ssta.mean;
          add g.Variation.Ssta.var)
        (Array.append r.Variation.Ssta.arrival [| r.Variation.Ssta.circuit |]))

let process_var circuit =
  let net, node_sp, _ = setup circuit in
  let config = Variation.Process_var.default_config ~n_samples:64 aging in
  let r =
    Variation.Process_var.run config net ~node_sp ~standby:stressed
      ~rng:(Physics.Rng.create ~seed:5)
  in
  digest_floats (fun add ->
      Array.iter
        (fun s ->
          add s.Variation.Process_var.fresh_delay;
          add s.Variation.Process_var.aged_delay)
        r.Variation.Process_var.samples)

let power circuit =
  let net, node_sp, input_sp = setup circuit in
  let activity =
    Logic.Activity.monte_carlo net ~rng:(Physics.Rng.create ~seed:9) ~input_sp ~n_pairs:1024
  in
  let op =
    Power.operating_point tech Thermal.Rc_model.default net ~node_sp ~activity ~freq:1e9
      ~n_blocks:1.5e6
  in
  digest_floats (fun add ->
      List.iter add
        [
          op.Power.temp_k;
          op.Power.per_block.Power.dynamic;
          op.Power.per_block.Power.leakage;
          op.Power.per_block.Power.total;
          op.Power.chip_power;
          float_of_int op.Power.iterations;
        ])

let studies =
  [
    ("dual_vth", dual_vth ?timing_tolerance:None);
    ("dual_vth tol0.05", dual_vth ~timing_tolerance:0.05);
    ("gate_sizing", gate_sizing);
    ("ssta fresh", ssta ~aged:false);
    ("ssta aged", ssta ~aged:true);
    ("process_var", process_var);
    ("power", power);
  ]

let study_bits =
  [
    ("dual_vth c17", "46737a5edaaabbd0934ae025e3aea0bd");
    ("dual_vth c432", "5b38102df45f723b270eb82f196fd912");
    ("dual_vth tol0.05 c17", "46737a5edaaabbd0934ae025e3aea0bd");
    ("dual_vth tol0.05 c432", "1fc21c2dae6c71841a78c29717b9d887");
    ("gate_sizing c17", "26080302e7adef5e4065f7d592aeb173");
    ("gate_sizing c432", "e99f2ce4a93b269e6422469c4e5ef8df");
    ("ssta fresh c17", "f8aca3d0b320336e196367531ae91e10");
    ("ssta fresh c432", "545cb5e88119779b6318f7be018b241e");
    ("ssta aged c17", "0da5066f5e59b0a829b8907f821afdab");
    ("ssta aged c432", "61d74a16fd9594f2f187782d62ad65ed");
    ("process_var c17", "f85520a77dab1924bdfdb68420ff1313");
    ("process_var c432", "416f59d7bb63fceb952e3451aaa7c6ca");
    ("power c17", "557307e8aa275a1a59499da1c97f4b11");
    ("power c432", "db4f64047d6ff366ef072b6d5a7be802");
  ]

let test_study_bits () =
  List.iter
    (fun (study, f) ->
      List.iter
        (fun circuit ->
          let name = study ^ " " ^ circuit in
          Alcotest.(check string) name (List.assoc name study_bits) (f circuit))
        [ "c17"; "c432" ])
    studies

let () =
  Alcotest.run "golden"
    [
      ( "golden",
        [
          Alcotest.test_case "served analyze/ivc/sleep/calibrate/batch bytes" `Quick
            test_served_bytes;
          Alcotest.test_case "mitigation, variation and power float bits" `Quick test_study_bits;
        ] );
    ]
