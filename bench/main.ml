(* Benchmark harness entry point.

   dune exec bench/main.exe                 -> all table/figure reproductions
   dune exec bench/main.exe -- table4 fig8  -> selected experiments
   dune exec bench/main.exe -- --ablation   -> design-choice ablations
   dune exec bench/main.exe -- --extension  -> extension studies (rotation,
                                               control points, dual-Vth, ...)
   dune exec bench/main.exe -- --perf       -> Bechamel wall-clock suite
   dune exec bench/main.exe -- --perf-json [PATH]
                                            -> suite + parallel scaling +
                                               compiled-core speedups +
                                               incremental re-analysis +
                                               GC pressure + tracing
                                               overhead, appended as one
                                               history entry to the bench
                                               record (default BENCH.json)
   dune exec bench/main.exe -- --scaling-gate
                                            -> just the parallel-scaling and
                                               compiled-speedup gates (fast;
                                               non-zero exit on failure)
   dune exec bench/main.exe -- --incremental-gate
                                            -> just the single-PI-flip
                                               re-analysis speedup and
                                               bit-identity gates (fast;
                                               non-zero exit on failure)
   dune exec bench/main.exe -- --obs-gate   -> just the tracing-overhead
                                               bound, collector off / on /
                                               with propagation context
                                               (fast; non-zero exit on
                                               failure)
   dune exec bench/main.exe -- --list       -> available experiment ids *)

let print_header () =
  Format.printf
    "=================================================================@.\
     Temperature-aware NBTI modeling - evaluation reproduction@.\
     (DATE 2007 / TDSC 2011; PTM-90nm analytical substrate)@.\
     =================================================================@.@."

let run_entry (id, description, f) =
  Format.printf ">>> %s: %s@.@." id description;
  f ()

let list_entries () =
  Format.printf "Experiments:@.";
  List.iter (fun (id, d, _) -> Format.printf "  %-10s %s@." id d) Experiments.all;
  Format.printf "Ablations:@.";
  List.iter (fun (id, d, _) -> Format.printf "  %-10s %s@." id d) Ablations.all;
  Format.printf "Extensions:@.";
  List.iter (fun (id, d, _) -> Format.printf "  %-10s %s@." id d) Extensions.all

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--list" ] -> list_entries ()
  | [ "--perf" ] ->
    print_header ();
    Perf.run ()
  | [ "--perf-json" ] -> Perf.run_json ~path:Perf.bench_record
  | [ "--perf-json"; path ] -> Perf.run_json ~path
  | [ "--scaling-gate" ] -> Perf.run_scaling_gate ()
  | [ "--incremental-gate" ] -> Perf.run_incremental_gate ()
  | [ "--obs-gate" ] -> Perf.run_obs_gate ()
  | [ "--ablation" ] ->
    print_header ();
    List.iter run_entry Ablations.all
  | [ "--extension" ] ->
    print_header ();
    List.iter run_entry Extensions.all
  | [] ->
    print_header ();
    List.iter run_entry Experiments.all
  | ids ->
    print_header ();
    List.iter
      (fun id ->
        match
          List.find_opt
            (fun (i, _, _) -> i = id)
            (Experiments.all @ Ablations.all @ Extensions.all)
        with
        | Some entry -> run_entry entry
        | None ->
          Format.printf "unknown experiment %s (try --list)@." id;
          exit 1)
      ids
