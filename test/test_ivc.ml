(* Tests for input vector control: MLV search, leakage/NBTI
   co-optimization and the internal node control bound. *)

let tech = Device.Tech.ptm_90nm
let c17 = Circuit.Generators.c17 ()
let tables = Leakage.Circuit_leakage.build_tables tech c17 ~temp_k:400.0
let sp = Logic.Signal_prob.analytic c17 ~input_sp:(Array.make 5 0.5)
let config = Aging.Circuit_aging.default_config ()

let test_evaluate () =
  let c = Ivc.Mlv.evaluate tables c17 (Array.make 5 false) in
  Alcotest.(check (float 1e-18)) "consistent with leakage lib"
    (Leakage.Circuit_leakage.standby_leakage tables c17 ~vector:(Array.make 5 false))
    c.Ivc.Mlv.leakage

let test_exhaustive_is_optimal () =
  let best = Ivc.Mlv.exhaustive tables c17 in
  for idx = 0 to 31 do
    let v = Array.init 5 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check bool) "no vector beats exhaustive" true
      (Leakage.Circuit_leakage.standby_leakage tables c17 ~vector:v >= best.Ivc.Mlv.leakage -. 1e-18)
  done

let test_exhaustive_guard () =
  let big = Circuit.Generators.by_name "c432" in
  let t = Leakage.Circuit_leakage.build_tables tech big ~temp_k:400.0 in
  Alcotest.(check bool) "too many PIs rejected" true
    (try
       ignore (Ivc.Mlv.exhaustive t big);
       false
     with Invalid_argument _ -> true)

let test_random_search_bounded_by_optimum () =
  let best = Ivc.Mlv.exhaustive tables c17 in
  let r = Ivc.Mlv.random_search tables c17 ~rng:(Physics.Rng.create ~seed:31) ~n:200 in
  Alcotest.(check bool) "random >= optimal" true (r.Ivc.Mlv.leakage >= best.Ivc.Mlv.leakage -. 1e-18)

let test_probability_based_finds_optimum_on_c17 () =
  (* 5 inputs: the heuristic should find the global optimum easily. *)
  let best = Ivc.Mlv.exhaustive tables c17 in
  let set, stats = Ivc.Mlv.probability_based tables c17 ~rng:(Physics.Rng.create ~seed:32) () in
  (match set with
  | top :: _ ->
    Alcotest.(check bool) "within 2% of optimum" true
      (top.Ivc.Mlv.leakage <= best.Ivc.Mlv.leakage *. 1.02)
  | [] -> Alcotest.fail "empty MLV set");
  Alcotest.(check bool) "bounded evaluations" true (stats.Ivc.Mlv.evaluations > 0)

let test_probability_based_set_properties () =
  let set, _ = Ivc.Mlv.probability_based tables c17 ~rng:(Physics.Rng.create ~seed:33) ~max_set:8 () in
  Alcotest.(check bool) "bounded size" true (List.length set <= 8 && set <> []);
  (* sorted ascending *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Ivc.Mlv.leakage <= b.Ivc.Mlv.leakage && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by leakage" true (sorted set);
  (* all within the tolerance band of the set minimum *)
  match set with
  | best :: _ ->
    List.iter
      (fun c ->
        Alcotest.(check bool) "within band" true
          (c.Ivc.Mlv.leakage <= best.Ivc.Mlv.leakage *. 1.0401))
      set
  | [] -> Alcotest.fail "empty"

let test_probability_based_deterministic () =
  let run seed = fst (Ivc.Mlv.probability_based tables c17 ~rng:(Physics.Rng.create ~seed) ()) in
  let a = run 5 and b = run 5 in
  Alcotest.(check int) "same size" (List.length a) (List.length b);
  List.iter2
    (fun x y -> Alcotest.(check (float 0.0)) "same leakage sequence" x.Ivc.Mlv.leakage y.Ivc.Mlv.leakage)
    a b

(* Ties: an input no gate reads leaves the leakage unchanged, so every
   minimum comes in pairs. Unused inputs at bit 0 and bit 13 (of 14)
   tie neighbouring indices inside a 4096-index block and whole blocks
   with each other. *)
let tie_net =
  lazy
    (let inputs = ("u_lo" :: List.init 12 (Printf.sprintf "i%d")) @ [ "u_hi" ] in
     let gates =
       List.init 6 (fun k -> Printf.sprintf "z%d = NAND(i%d, i%d)" k (2 * k) ((2 * k) + 1))
     in
     Circuit.Bench_io.parse_string ~name:"ties"
       (String.concat "\n"
          (List.map (Printf.sprintf "INPUT(%s)") inputs
          @ List.init 6 (Printf.sprintf "OUTPUT(z%d)")
          @ gates)
       ^ "\n"))

let test_exhaustive_lowest_index_wins () =
  let net = Lazy.force tie_net in
  let tables = Leakage.Circuit_leakage.build_tables tech net ~temp_k:400.0 in
  let n = Circuit.Netlist.n_primary_inputs net in
  (* The boxed scan in index order, keeping the first minimum. *)
  let best_idx = ref 0 and best = ref infinity in
  for idx = 0 to (1 lsl n) - 1 do
    let vector = Array.init n (fun i -> (idx lsr i) land 1 = 1) in
    let l = Leakage.Circuit_leakage.standby_leakage tables net ~vector in
    if l < !best then begin
      best := l;
      best_idx := idx
    end
  done;
  Alcotest.(check bool) "the first minimum leaves both unused inputs at 0" true
    (!best_idx land 1 = 0 && !best_idx < 1 lsl 13);
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun par ->
          let got = Ivc.Mlv.exhaustive ~par tables net in
          Alcotest.(check string)
            (Printf.sprintf "lowest index @ %d domains" domains)
            (Ivc.Mlv.vector_key (Array.init n (fun i -> (!best_idx lsr i) land 1 = 1)))
            (Ivc.Mlv.vector_key got.Ivc.Mlv.vector);
          Alcotest.(check (float 0.0)) "leakage" !best got.Ivc.Mlv.leakage))
    [ 1; 2 ]

let test_random_search_first_drawn_wins () =
  let net = Lazy.force tie_net in
  let tables = Leakage.Circuit_leakage.build_tables tech net ~temp_k:400.0 in
  let n = Circuit.Netlist.n_primary_inputs net in
  List.iter
    (fun draws ->
      let rng = Physics.Rng.create ~seed:77 in
      let best = ref None in
      for _ = 1 to draws do
        let v = Array.init n (fun _ -> Physics.Rng.bool rng) in
        let c = Ivc.Mlv.evaluate tables net v in
        match !best with
        | Some b when not (c.Ivc.Mlv.leakage < b.Ivc.Mlv.leakage) -> ()
        | _ -> best := Some c
      done;
      let expect = Option.get !best in
      let got = Ivc.Mlv.random_search tables net ~rng:(Physics.Rng.create ~seed:77) ~n:draws in
      Alcotest.(check string)
        (Printf.sprintf "first-drawn minimum of %d" draws)
        (Ivc.Mlv.vector_key expect.Ivc.Mlv.vector)
        (Ivc.Mlv.vector_key got.Ivc.Mlv.vector);
      Alcotest.(check (float 0.0)) "leakage" expect.Ivc.Mlv.leakage got.Ivc.Mlv.leakage)
    [ 1; 63; 64; 65; 300 ]

(* --- Golden answers: recorded before the search scored vectors in
   packed sweeps, and required to hold on every later engine --- *)

(* MD5 of the served [ivc_search] response bytes, per circuit, seed and
   option set. *)
let golden_served =
  [
    ("c432", 1, "default", "b8ab8c6966fdb4682081ef3a60e88c3d");
    ("c432", 1, "pool16", "42f27182c78346138ec1e3eaa975ae48");
    ("c432", 1, "tol0.1", "0909e477b2c34e998c0827c42f969033");
    ("c432", 42, "default", "b7f0ba213112a6e3ae75c157c0fda706");
    ("c432", 42, "pool16", "1288e6d4bb131f576a0a5a03b697799a");
    ("c432", 42, "tol0.1", "1d74cd793da500c40a1a6a5a393ad6b3");
    ("c432", 9002, "default", "5da087c162e2d2f97b88b9e00496bfeb");
    ("c432", 9002, "pool16", "f984586eddd4b8ed61428b42a654bcaf");
    ("c432", 9002, "tol0.1", "5eb643446b47ae61e42aaafeb8f62fce");
    ("c499", 1, "default", "26550343866e5407b7214437ed5c1905");
    ("c499", 1, "pool16", "4a35f215a18a162c89a0ca96d6361223");
    ("c499", 1, "tol0.1", "26550343866e5407b7214437ed5c1905");
    ("c499", 42, "default", "d9855d6b437e637521c13ecd2da58227");
    ("c499", 42, "pool16", "cb90c3fc435f742a2a3c1fdc7e1ec19a");
    ("c499", 42, "tol0.1", "d9855d6b437e637521c13ecd2da58227");
    ("c499", 9002, "default", "58f8e21a3626bc8e3bac4efedaec5580");
    ("c499", 9002, "pool16", "9ec284af7e92fc5fb3cd5ffb3056b3a5");
    ("c499", 9002, "tol0.1", "58f8e21a3626bc8e3bac4efedaec5580");
    ("c880", 1, "default", "f05af3c0b8e96a24a8c5fcdb98011a11");
    ("c880", 1, "pool16", "28b962b207f71763abf225b143bdd2f5");
    ("c880", 1, "tol0.1", "f05af3c0b8e96a24a8c5fcdb98011a11");
    ("c880", 42, "default", "5f19a27531dbafc30c24def177b57492");
    ("c880", 42, "pool16", "e07bb8390217636987e10fefa7119eb5");
    ("c880", 42, "tol0.1", "5f19a27531dbafc30c24def177b57492");
    ("c880", 9002, "default", "ebfbf4a8809168d131ba8564b70e84a6");
    ("c880", 9002, "pool16", "cb2d4238df46644ce11ec5f2a1bd4387");
    ("c880", 9002, "tol0.1", "ebfbf4a8809168d131ba8564b70e84a6");
    ("c6288", 1, "default", "06399c4e99045641bb398556b9ad5ee3");
    ("c6288", 1, "pool16", "0075573091a0ba891b864accd83a84d1");
    ("c6288", 1, "tol0.1", "06399c4e99045641bb398556b9ad5ee3");
    ("c6288", 42, "default", "4306524c5290e9d32ddf8da575ec43bf");
    ("c6288", 42, "pool16", "f00b803db5c1a26c1d7870c0ab3229d9");
    ("c6288", 42, "tol0.1", "4306524c5290e9d32ddf8da575ec43bf");
    ("c6288", 9002, "default", "c841b91834ac2b1ea3af3e10f4cbfacc");
    ("c6288", 9002, "pool16", "3c5cc595ce29e325e4c1144b1d63d2e7");
    ("c6288", 9002, "tol0.1", "c841b91834ac2b1ea3af3e10f4cbfacc");
  ]

let golden_option = function
  | "default" -> ""
  | "pool16" -> ",\"pool\":16"
  | "tol0.1" -> ",\"tolerance\":0.1"
  | o -> Alcotest.fail ("unknown option set " ^ o)

let test_golden_served_bytes () =
  let svc = Server.Service.create () in
  List.iter
    (fun (circuit, seed, opts, md5) ->
      let line =
        Printf.sprintf "{\"v\":1,\"op\":\"ivc_search\",\"circuit\":%S,\"seed\":%d%s}" circuit
          seed (golden_option opts)
      in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d %s" circuit seed opts)
        md5
        (Digest.to_hex (Digest.string (Server.Service.handle_line svc line))))
    golden_served

(* rounds/evaluations/converged/MD5 of the set's packed vectors and
   leakage bits, for [probability_based] at seed 11 on 400 K tables. *)
let golden_sets =
  [
    ("c432", "default", "50/3264/false/ca5ba094d7d7922833cd13978488c2da");
    ("c432", "pool16", "50/816/false/ad01171648ac9f64b922f8653ee89fab");
    ("c432", "tol0.1", "50/3264/false/02545448d6065c06309a668d974d2663");
    ("c499", "default", "50/3264/false/c742c06a647df4675786faab0ad9768a");
    ("c499", "pool16", "50/816/false/e3e9478921e0e402276eb2b76fdac91c");
    ("c499", "tol0.1", "50/3264/false/c742c06a647df4675786faab0ad9768a");
    ("c880", "default", "50/3264/false/5e434bc27b39d7beb40cf3debbeb6cce");
    ("c880", "pool16", "50/816/false/3b342b7f12a022317851c98d3ef3ad76");
    ("c880", "tol0.1", "50/3264/false/5e434bc27b39d7beb40cf3debbeb6cce");
    ("c6288", "default", "50/3264/false/04ec77bfd713e7010c4d0f0c1767d871");
    ("c6288", "pool16", "50/816/false/74187fc569e85f3a6c521efd453784fe");
    ("c6288", "tol0.1", "50/3264/false/04ec77bfd713e7010c4d0f0c1767d871");
  ]

let set_fingerprint (set, (st : Ivc.Mlv.search_stats)) =
  let b = Buffer.create 256 in
  List.iter
    (fun (c : Ivc.Mlv.candidate) ->
      Buffer.add_string b (Ivc.Mlv.vector_key c.Ivc.Mlv.vector);
      Buffer.add_int64_le b (Int64.bits_of_float c.Ivc.Mlv.leakage))
    set;
  Printf.sprintf "%d/%d/%b/%s" st.Ivc.Mlv.rounds st.Ivc.Mlv.evaluations st.Ivc.Mlv.converged
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_golden_sets_across_domains () =
  List.iter
    (fun (circuit, opts, expect) ->
      let net = Circuit.Generators.by_name circuit in
      let tables = Leakage.Circuit_leakage.build_tables tech net ~temp_k:400.0 in
      let pool, tolerance =
        match opts with
        | "default" -> (None, None)
        | "pool16" -> (Some 16, None)
        | "tol0.1" -> (None, Some 0.1)
        | o -> Alcotest.fail ("unknown option set " ^ o)
      in
      List.iter
        (fun domains ->
          Parallel.Pool.with_pool ~domains (fun par ->
              Alcotest.(check string)
                (Printf.sprintf "%s %s @ %d domains" circuit opts domains)
                expect
                (set_fingerprint
                   (Ivc.Mlv.probability_based ~par tables net ~rng:(Physics.Rng.create ~seed:11)
                      ?pool ?tolerance ()))))
        [ 1; 2; 4 ])
    golden_sets

(* --- Co-optimization --- *)

let candidates () = fst (Ivc.Mlv.probability_based tables c17 ~rng:(Physics.Rng.create ~seed:34) ())

let test_co_optimize_picks_min_degradation () =
  let result = Ivc.Co_opt.co_optimize config tables c17 ~node_sp:sp ~candidates:(candidates ()) in
  List.iter
    (fun c ->
      Alcotest.(check bool) "best is minimal" true
        (c.Ivc.Co_opt.degradation >= result.Ivc.Co_opt.best.Ivc.Co_opt.degradation -. 1e-15))
    result.Ivc.Co_opt.all

let test_co_optimize_spread () =
  let result = Ivc.Co_opt.co_optimize config tables c17 ~node_sp:sp ~candidates:(candidates ()) in
  let ds = List.map (fun c -> c.Ivc.Co_opt.degradation) result.Ivc.Co_opt.all in
  let lo, hi = Physics.Stats.min_max (Array.of_list ds) in
  Alcotest.(check (float 1e-15)) "spread = max - min" (hi -. lo) result.Ivc.Co_opt.spread

let test_co_optimize_empty_rejected () =
  Alcotest.(check bool) "empty candidates" true
    (try
       ignore (Ivc.Co_opt.co_optimize config tables c17 ~node_sp:sp ~candidates:[]);
       false
     with Invalid_argument _ -> true)

let test_run_end_to_end () =
  let result, _ = Ivc.Co_opt.run config tables c17 ~node_sp:sp ~rng:(Physics.Rng.create ~seed:35) () in
  Alcotest.(check bool) "fresh delay positive" true (result.Ivc.Co_opt.fresh_delay > 0.0);
  Alcotest.(check bool) "best degradation within bounds" true
    (result.Ivc.Co_opt.best.Ivc.Co_opt.degradation > 0.0
    && result.Ivc.Co_opt.best.Ivc.Co_opt.degradation < 0.15)

let test_ivc_best_between_bounding_states () =
  let result, _ = Ivc.Co_opt.run config tables c17 ~node_sp:sp ~rng:(Physics.Rng.create ~seed:36) () in
  let d standby =
    (Aging.Circuit_aging.analyze config c17 ~node_sp:sp ~standby ()).Aging.Circuit_aging.degradation
  in
  let worst = d Aging.Circuit_aging.Standby_all_stressed in
  let best = d Aging.Circuit_aging.Standby_all_relaxed in
  Alcotest.(check bool) "IVC result within the bounds" true
    (result.Ivc.Co_opt.best.Ivc.Co_opt.degradation >= best -. 1e-12
    && result.Ivc.Co_opt.best.Ivc.Co_opt.degradation <= worst +. 1e-12)

(* --- Internal node control --- *)

let test_potential_structure () =
  let p = Ivc.Internal_node.potential config c17 ~node_sp:sp in
  Alcotest.(check bool) "worst >= best" true
    (p.Ivc.Internal_node.worst_degradation >= p.Ivc.Internal_node.best_degradation);
  Alcotest.(check bool) "potential in [0,1]" true
    (p.Ivc.Internal_node.potential >= 0.0 && p.Ivc.Internal_node.potential <= 1.0)

let test_potential_grows_with_standby_temperature () =
  (* Table 4's trend: 18.1% at 330K growing to 54.9% at 400K. *)
  let sweep =
    Ivc.Internal_node.sweep_standby_temperature config c17 ~node_sp:sp
      ~temps:[| 330.0; 350.0; 370.0; 400.0 |]
  in
  Array.iteri
    (fun i (_, p) ->
      if i > 0 then begin
        let _, prev = sweep.(i - 1) in
        Alcotest.(check bool) "monotone in standby temperature" true
          (p.Ivc.Internal_node.potential >= prev.Ivc.Internal_node.potential)
      end)
    sweep

let test_worst_degradation_grows_with_standby_temperature () =
  let sweep =
    Ivc.Internal_node.sweep_standby_temperature config c17 ~node_sp:sp ~temps:[| 330.0; 400.0 |]
  in
  let _, cold = sweep.(0) and _, hot = sweep.(1) in
  Alcotest.(check bool) "hot standby degrades more" true
    (hot.Ivc.Internal_node.worst_degradation > cold.Ivc.Internal_node.worst_degradation);
  (* Best case barely moves (recovery is temperature-insensitive). *)
  Alcotest.(check bool) "best case stable" true
    (Float.abs (hot.Ivc.Internal_node.best_degradation -. cold.Ivc.Internal_node.best_degradation)
     /. cold.Ivc.Internal_node.best_degradation
    < 0.05)

let () =
  Alcotest.run "ivc"
    [
      ( "mlv",
        [
          Alcotest.test_case "evaluate" `Quick test_evaluate;
          Alcotest.test_case "exhaustive optimal" `Quick test_exhaustive_is_optimal;
          Alcotest.test_case "exhaustive guard" `Quick test_exhaustive_guard;
          Alcotest.test_case "random search bound" `Quick test_random_search_bounded_by_optimum;
          Alcotest.test_case "probability-based near optimum" `Quick test_probability_based_finds_optimum_on_c17;
          Alcotest.test_case "set properties" `Quick test_probability_based_set_properties;
          Alcotest.test_case "deterministic" `Quick test_probability_based_deterministic;
        ] );
      ( "ties",
        [
          Alcotest.test_case "exhaustive: lowest index wins" `Quick
            test_exhaustive_lowest_index_wins;
          Alcotest.test_case "random search: first-drawn wins" `Quick
            test_random_search_first_drawn_wins;
        ] );
      ( "golden",
        [
          Alcotest.test_case "served ivc_search bytes" `Quick test_golden_served_bytes;
          Alcotest.test_case "probability_based at 1/2/4 domains" `Quick
            test_golden_sets_across_domains;
        ] );
      ( "co-opt",
        [
          Alcotest.test_case "picks min degradation" `Quick test_co_optimize_picks_min_degradation;
          Alcotest.test_case "spread" `Quick test_co_optimize_spread;
          Alcotest.test_case "empty rejected" `Quick test_co_optimize_empty_rejected;
          Alcotest.test_case "end to end" `Quick test_run_end_to_end;
          Alcotest.test_case "within bounding states" `Quick test_ivc_best_between_bounding_states;
        ] );
      ( "internal-node",
        [
          Alcotest.test_case "potential structure" `Quick test_potential_structure;
          Alcotest.test_case "potential grows with T_standby" `Quick test_potential_grows_with_standby_temperature;
          Alcotest.test_case "worst grows, best stable" `Quick test_worst_degradation_grows_with_standby_temperature;
        ] );
    ]
