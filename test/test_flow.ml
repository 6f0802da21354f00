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
