(* Tests for the Fig. 6 platform and the report renderer. *)

let cfg = Flow.Platform.default_config ()
let c17 = Circuit.Generators.c17 ()
let prepared = Flow.Platform.prepare cfg c17

let test_prepare () =
  Alcotest.(check string) "netlist kept" "c17" (Flow.Platform.netlist prepared).Circuit.Netlist.name;
  let sp = Flow.Platform.node_sp prepared in
  Alcotest.(check int) "SP per node" (Circuit.Netlist.n_nodes c17) (Array.length sp);
  Array.iter (fun p -> Alcotest.(check bool) "probabilities" true (p >= 0.0 && p <= 1.0)) sp

let test_analyze_worst () =
  let a = Flow.Platform.analyze cfg prepared ~standby:Aging.Circuit_aging.Standby_all_stressed in
  Alcotest.(check bool) "aged slower" true (a.Flow.Platform.aged_delay > a.Flow.Platform.fresh_delay);
  Alcotest.(check (float 1e-12)) "degradation consistent"
    ((a.Flow.Platform.aged_delay -. a.Flow.Platform.fresh_delay) /. a.Flow.Platform.fresh_delay)
    a.Flow.Platform.degradation;
  Alcotest.(check int) "stats wired" 6 a.Flow.Platform.stats.Circuit.Netlist.n_gates

let test_analyze_leakage_ordering () =
  let worst = Flow.Platform.analyze cfg prepared ~standby:Aging.Circuit_aging.Standby_all_stressed in
  let best = Flow.Platform.analyze cfg prepared ~standby:Aging.Circuit_aging.Standby_all_relaxed in
  let vec =
    Flow.Platform.analyze cfg prepared
      ~standby:(Aging.Circuit_aging.Standby_vector (Array.make 5 true))
  in
  Alcotest.(check bool) "bounds bracket the vector" true
    (vec.Flow.Platform.standby_leakage >= best.Flow.Platform.standby_leakage
    && vec.Flow.Platform.standby_leakage <= worst.Flow.Platform.standby_leakage);
  Alcotest.(check bool) "active leakage within bounds" true
    (worst.Flow.Platform.active_leakage > best.Flow.Platform.standby_leakage
    && worst.Flow.Platform.active_leakage < worst.Flow.Platform.standby_leakage)

let test_analytic_sp_config () =
  let cfg2 = { cfg with Flow.Platform.sp_method = Flow.Platform.Sp_analytic } in
  let p2 = Flow.Platform.prepare cfg2 c17 in
  let a = Flow.Platform.analyze cfg2 p2 ~standby:Aging.Circuit_aging.Standby_all_stressed in
  let b = Flow.Platform.analyze cfg prepared ~standby:Aging.Circuit_aging.Standby_all_stressed in
  (* Analytic and Monte-Carlo SPs must agree closely on c17. *)
  Alcotest.(check bool) "estimator-insensitive result" true
    (Float.abs (a.Flow.Platform.degradation -. b.Flow.Platform.degradation)
     /. b.Flow.Platform.degradation
    < 0.05)

let test_optimize_ivc () =
  let result, stats =
    Flow.Platform.optimize_ivc cfg prepared ~rng:(Physics.Rng.create ~seed:61) ()
  in
  Alcotest.(check bool) "produced candidates" true (result.Ivc.Co_opt.all <> []);
  Alcotest.(check bool) "search ran" true (stats.Ivc.Mlv.evaluations > 0)

let test_optimize_st () =
  let r = Flow.Platform.optimize_st cfg prepared ~style:Sleep.St_insertion.Footer ~beta:0.03 () in
  Alcotest.(check (float 0.0)) "footer" 0.0 r.Sleep.St_insertion.st_dvth

let test_internal_node_potential () =
  let p = Flow.Platform.internal_node_potential cfg prepared in
  Alcotest.(check bool) "positive potential" true (p.Ivc.Internal_node.potential > 0.0)

let test_determinism_c432 () =
  (* Two full runs with the same seed and config must be bit-identical —
     this is the assumption behind the analysis service's
     content-addressed result cache. *)
  let cfg = Flow.Platform.default_config () in
  let run () =
    let net = Circuit.Generators.by_name "c432" in
    let p = Flow.Platform.prepare cfg net in
    Flow.Platform.analyze cfg p ~standby:Aging.Circuit_aging.Standby_all_stressed
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical analysis records" true (a = b);
  Alcotest.(check (float 0.0)) "aged delay exact" a.Flow.Platform.aged_delay
    b.Flow.Platform.aged_delay

let test_fingerprints () =
  let cfg = Flow.Platform.default_config () in
  Alcotest.(check string) "config fingerprint deterministic"
    (Flow.Platform.config_fingerprint cfg)
    (Flow.Platform.config_fingerprint (Flow.Platform.default_config ()));
  let analytic = { cfg with Flow.Platform.sp_method = Flow.Platform.Sp_analytic } in
  Alcotest.(check bool) "SP method changes both fingerprints" true
    (Flow.Platform.config_fingerprint cfg <> Flow.Platform.config_fingerprint analytic
    && Flow.Platform.prepare_fingerprint cfg <> Flow.Platform.prepare_fingerprint analytic);
  (* lifetime is an analyze-only field: the full fingerprint moves, the
     prepare fingerprint (SPs + leakage tables) must not *)
  let aging = Aging.Circuit_aging.default_config ~time:(Physics.Units.years 3.0) () in
  let shorter = { cfg with Flow.Platform.aging } in
  Alcotest.(check bool) "lifetime changes config fingerprint" true
    (Flow.Platform.config_fingerprint cfg <> Flow.Platform.config_fingerprint shorter);
  Alcotest.(check string) "lifetime keeps prepare fingerprint"
    (Flow.Platform.prepare_fingerprint cfg)
    (Flow.Platform.prepare_fingerprint shorter)

(* Fingerprints come from a memo keyed on the bits of what they render.
   Memoize a config, then move one field the rendering reads by one ulp
   (an integer by one): the fingerprint must move, so no field is
   missing from the key. Fields [prepare] reads move both fingerprints;
   the others move only the full one. The schedule's period is the sum
   of its phase durations, so it moves with each duration. *)
let test_fingerprint_memo_moves_with_every_field () =
  let open Flow.Platform in
  let base = default_config ~aging:(Aging.Circuit_aging.default_config ~pbti_scale:0.5 ()) () in
  let fp0 = config_fingerprint base and pfp0 = prepare_fingerprint base in
  let a = base.aging in
  let aging f = { base with aging = f a } in
  let open Aging.Circuit_aging in
  let tech f = aging (fun a -> { a with tech = f a.tech }) in
  let params f = aging (fun a -> { a with params = f a.params }) in
  let sch = a.Aging.Circuit_aging.schedule in
  let schedule ?(t_ref = sch.Nbti.Schedule.t_ref) phases =
    aging (fun a -> { a with Aging.Circuit_aging.schedule = Nbti.Schedule.make ~t_ref phases })
  in
  let phase i f =
    schedule (List.mapi (fun j ph -> if i = j then f ph else ph) sch.Nbti.Schedule.phases)
  in
  let u = Float.succ in
  let mc ~n_vectors ~seed = { base with sp_method = Sp_monte_carlo { n_vectors; seed } } in
  let prepare_cases =
    let open Device.Tech in
    [
      ("tech name", tech (fun t -> { t with name = t.name ^ "'" }));
      ("vdd", tech (fun t -> { t with vdd = u t.vdd }));
      ("vth_p", tech (fun t -> { t with vth_p = u t.vth_p }));
      ("vth_n", tech (fun t -> { t with vth_n = u t.vth_n }));
      ("tox", tech (fun t -> { t with tox = u t.tox }));
      ("lmin", tech (fun t -> { t with lmin = u t.lmin }));
      ("alpha", tech (fun t -> { t with alpha = u t.alpha }));
      ("k_sat_n", tech (fun t -> { t with k_sat_n = u t.k_sat_n }));
      ("k_sat_p", tech (fun t -> { t with k_sat_p = u t.k_sat_p }));
      ("i0_sub", tech (fun t -> { t with i0_sub = u t.i0_sub }));
      ("n_swing", tech (fun t -> { t with n_swing = u t.n_swing }));
      ("dvth_dt", tech (fun t -> { t with dvth_dt = u t.dvth_dt }));
      ("jg0", tech (fun t -> { t with jg0 = u t.jg0 }));
      ("vg0", tech (fun t -> { t with vg0 = u t.vg0 }));
      ("cg_per_wl", tech (fun t -> { t with cg_per_wl = u t.cg_per_wl }));
      ("ea_sub_ev", tech (fun t -> { t with ea_sub_ev = u t.ea_sub_ev }));
      ("input_sp", { base with input_sp = u base.input_sp });
      ("leakage_temp", { base with leakage_temp = u base.leakage_temp });
      ("n_vectors + 1", mc ~n_vectors:4097 ~seed:7);
      ("n_vectors - 1", mc ~n_vectors:4095 ~seed:7);
      ("seed + 1", mc ~n_vectors:4096 ~seed:8);
      ("seed - 1", mc ~n_vectors:4096 ~seed:6);
      ("analytic SPs", { base with sp_method = Sp_analytic });
    ]
  in
  let config_cases =
    let open Nbti.Rd_model in
    [
      ("kv_ref", params (fun p -> { p with kv_ref = u p.kv_ref }));
      ("ref_temp_k", params (fun p -> { p with ref_temp_k = u p.ref_temp_k }));
      ("ref_overdrive", params (fun p -> { p with ref_overdrive = u p.ref_overdrive }));
      ("ref_vth0", params (fun p -> { p with ref_vth0 = u p.ref_vth0 }));
      ("ea_ev", params (fun p -> { p with ea_ev = u p.ea_ev }));
      ("e0_field", params (fun p -> { p with e0_field = u p.e0_field }));
      ("time_exponent", params (fun p -> { p with time_exponent = u p.time_exponent }));
      ( "permanent_fraction",
        params (fun p -> { p with permanent_fraction = u p.permanent_fraction }) );
      ("t_ref", schedule ~t_ref:(u sch.Nbti.Schedule.t_ref) sch.Nbti.Schedule.phases);
      ("time", aging (fun a -> { a with Aging.Circuit_aging.time = u a.Aging.Circuit_aging.time }));
      ("pbti_scale", aging (fun a -> { a with Aging.Circuit_aging.pbti_scale = Some (u 0.5) }));
      ("no pbti_scale", aging (fun a -> { a with Aging.Circuit_aging.pbti_scale = None }));
    ]
    @ List.concat
        (List.mapi
           (fun i (_ : Nbti.Schedule.phase) ->
             let open Nbti.Schedule in
             let name field = Printf.sprintf "phase %d %s" i field in
             [
               (name "duration", phase i (fun ph -> { ph with duration = u ph.duration }));
               (name "temp_k", phase i (fun ph -> { ph with temp_k = u ph.temp_k }));
               ( name "stress_duty",
                 phase i (fun ph ->
                     let step = if ph.stress_duty < 1.0 then u else Float.pred in
                     { ph with stress_duty = step ph.stress_duty }) );
               ( name "mode",
                 phase i (fun ph ->
                     { ph with mode = (if ph.mode = Active then Standby else Active) }) );
             ])
           sch.Nbti.Schedule.phases)
  in
  let moves name what fp fp0 = Alcotest.(check bool) (name ^ " moves the " ^ what) true (fp <> fp0) in
  List.iter
    (fun (name, cfg) ->
      moves name "config fingerprint" (config_fingerprint cfg) fp0;
      moves name "prepare fingerprint" (prepare_fingerprint cfg) pfp0)
    prepare_cases;
  List.iter
    (fun (name, cfg) ->
      moves name "config fingerprint" (config_fingerprint cfg) fp0;
      Alcotest.(check string) (name ^ " keeps the prepare fingerprint") pfp0 (prepare_fingerprint cfg))
    config_cases;
  let all = List.map (fun (_, c) -> config_fingerprint c) (prepare_cases @ config_cases) in
  Alcotest.(check int) "every case distinct" (List.length all)
    (List.length (List.sort_uniq compare all))

(* Past its bound the memo forgets, never answers wrongly: fingerprints
   asked for again after more distinct configs than it holds, from one
   thread or from two domains at once, equal the first answers. *)
let test_fingerprint_memo_bound () =
  let open Flow.Platform in
  let base = default_config () in
  let first = (config_fingerprint base, prepare_fingerprint base) in
  let n = fingerprint_memo_capacity + 200 in
  let configs =
    Array.init n (fun i ->
        let time = base.aging.Aging.Circuit_aging.time +. float_of_int i in
        let aging = { base.aging with Aging.Circuit_aging.time } in
        { base with aging; input_sp = 0.25 +. (1e-6 *. float_of_int i) })
  in
  let fps () = Array.map (fun c -> (config_fingerprint c, prepare_fingerprint c)) configs in
  let once = fps () in
  Alcotest.(check int) "all distinct" n (List.length (List.sort_uniq compare (Array.to_list once)));
  Alcotest.(check bool) "again, after the memo filled" true (fps () = once);
  Alcotest.(check bool) "the config memoized before it filled" true
    ((config_fingerprint base, prepare_fingerprint base) = first);
  let racers = List.init 2 (fun _ -> Domain.spawn fps) in
  List.iter
    (fun d -> Alcotest.(check bool) "two domains at once" true (Domain.join d = once))
    racers

(* A fresh standby vector is one logic simulation and a per-stage pick
   from memoized duty tables, not a walk of every cell's transistor
   networks (about 3.9 M minor words on c6288). The count repeats
   exactly, so the bound catches that walk coming back. *)
let test_fresh_vector_allocation () =
  let net = Circuit.Generators.by_name "c6288" in
  let p = Flow.Platform.prepare cfg net in
  let rng = Physics.Rng.create ~seed:13 in
  let n_pi = Array.length (Circuit.Netlist.primary_inputs net) in
  let fresh () =
    Aging.Circuit_aging.Standby_vector (Array.init n_pi (fun _ -> Physics.Rng.bool rng))
  in
  ignore (Flow.Platform.analyze cfg p ~standby:(fresh ()));
  let standby = fresh () in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Flow.Platform.analyze cfg p ~standby));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words < 200k" words) true (words < 200_000.0)

(* --- Report --- *)

let test_table_rendering () =
  let t =
    {
      Flow.Report.title = "T";
      header = [ "a"; "bbbb" ];
      rows = [ [ "1"; "2" ]; [ "333"; "4" ] ];
    }
  in
  let s = Format.asprintf "%a" Flow.Report.pp_table t in
  Alcotest.(check bool) "title present" true (String.length s > 0 && String.sub s 0 1 = "T");
  (* Aligned: every line has the same length. *)
  let lines = String.split_on_char '\n' (String.trim s) in
  (match lines with
  | _title :: header :: rule :: rows ->
    List.iter
      (fun l -> Alcotest.(check int) "aligned width" (String.length header) (String.length l))
      (rule :: rows)
  | _ -> Alcotest.fail "unexpected shape")

let test_table_arity_check () =
  let t = { Flow.Report.title = "T"; header = [ "a"; "b" ]; rows = [ [ "only-one" ] ] } in
  Alcotest.(check bool) "bad row rejected" true
    (try
       ignore (Format.asprintf "%a" Flow.Report.pp_table t);
       false
     with Invalid_argument _ -> true)

let test_series () =
  let t = Flow.Report.series ~title:"fig" ~x_label:"t" ~y_labels:[ "y1"; "y2" ] [ (1.0, [ 2.0; 3.0 ]) ] in
  Alcotest.(check int) "columns" 3 (List.length t.Flow.Report.header);
  Alcotest.(check int) "rows" 1 (List.length t.Flow.Report.rows)

let test_cells () =
  Alcotest.(check string) "pct" "4.32" (Flow.Report.cell_pct 0.0432);
  Alcotest.(check string) "mv" "46.00" (Flow.Report.cell_mv 0.046);
  Alcotest.(check string) "ps" "87.8" (Flow.Report.cell_ps 87.8e-12);
  Alcotest.(check string) "float" "1.500" (Flow.Report.cell_f 1.5)

let test_vector_string () =
  Alcotest.(check string) "short" "010" (Flow.Report.vector_string [| false; true; false |]);
  let long = Array.make 30 true in
  let s = Flow.Report.vector_string long in
  Alcotest.(check bool) "truncated" true (String.length s = 27 && String.sub s 24 3 = "...")

let () =
  Alcotest.run "flow"
    [
      ( "platform",
        [
          Alcotest.test_case "prepare" `Quick test_prepare;
          Alcotest.test_case "analyze worst" `Quick test_analyze_worst;
          Alcotest.test_case "leakage ordering" `Quick test_analyze_leakage_ordering;
          Alcotest.test_case "analytic SP config" `Quick test_analytic_sp_config;
          Alcotest.test_case "IVC optimization" `Quick test_optimize_ivc;
          Alcotest.test_case "ST optimization" `Quick test_optimize_st;
          Alcotest.test_case "internal node potential" `Quick test_internal_node_potential;
          Alcotest.test_case "determinism on c432" `Quick test_determinism_c432;
          Alcotest.test_case "fingerprints" `Quick test_fingerprints;
          Alcotest.test_case "fingerprint memo: every field moves it" `Quick
            test_fingerprint_memo_moves_with_every_field;
          Alcotest.test_case "fingerprint memo: bounded and sound" `Quick
            test_fingerprint_memo_bound;
          Alcotest.test_case "fresh-vector analyze allocation" `Quick test_fresh_vector_allocation;
        ] );
      ( "report",
        [
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
          Alcotest.test_case "series" `Quick test_series;
          Alcotest.test_case "cells" `Quick test_cells;
          Alcotest.test_case "vector string" `Quick test_vector_string;
        ] );
    ]
