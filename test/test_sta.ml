(* Tests for static timing analysis: the compiled engine every analysis
   times on, the load model and the slope-resolved pass. *)

let tech = Device.Tech.ptm_90nm
let c17 = Circuit.Generators.c17 ()
let c432 = Circuit.Generators.by_name "c432"

let timing ?po_load ?(temp_k = 400.0) t =
  Compiled.Timing.get (Compiled.Arena.get t) ~tech ~temp_k ?po_load ()

let fresh ?po_load ?temp_k t = Compiled.Timing.fresh_result (timing ?po_load ?temp_k t)

let aged t ~stage_dvth =
  Compiled.Timing.aged_result (timing t)
    ~dvth:(Compiled.Arena.stage_values (Compiled.Arena.get t) stage_dvth)
    ()

let test_fresh_positive () =
  let r = fresh c17 in
  Alcotest.(check bool) "ps scale" true (r.Compiled.Timing.max_delay > 1e-12 && r.Compiled.Timing.max_delay < 1e-9)

let test_arrival_monotone_along_fanin () =
  let r = fresh c432 in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ ->
        Alcotest.(check (float 0.0)) "PI arrival 0" 0.0 r.Compiled.Timing.arrival.(i)
      | Circuit.Netlist.Gate { fanin; _ } ->
        Array.iter
          (fun f ->
            Alcotest.(check bool) "arrival after fanin" true
              (r.Compiled.Timing.arrival.(i) > r.Compiled.Timing.arrival.(f)))
          fanin)
    c432.Circuit.Netlist.nodes

let test_max_delay_is_output_arrival () =
  let r = fresh c432 in
  let best =
    Array.fold_left
      (fun acc o -> Float.max acc r.Compiled.Timing.arrival.(o))
      0.0 c432.Circuit.Netlist.outputs
  in
  Alcotest.(check (float 1e-18)) "max over POs" best r.Compiled.Timing.max_delay

let test_critical_path_structure () =
  let r = fresh c432 in
  (match r.Compiled.Timing.critical_path with
  | [] -> Alcotest.fail "empty critical path"
  | first :: _ ->
    (match c432.Circuit.Netlist.nodes.(first) with
    | Circuit.Netlist.Primary_input _ -> ()
    | _ -> Alcotest.fail "critical path must start at a primary input"));
  let last = List.nth r.Compiled.Timing.critical_path (List.length r.Compiled.Timing.critical_path - 1) in
  Alcotest.(check int) "ends at critical output" r.Compiled.Timing.critical_output last;
  (* Consecutive elements are connected. *)
  let rec check_edges = function
    | a :: (b :: _ as rest) ->
      (match c432.Circuit.Netlist.nodes.(b) with
      | Circuit.Netlist.Gate { fanin; _ } ->
        Alcotest.(check bool) "edge exists" true (Array.exists (fun f -> f = a) fanin)
      | Circuit.Netlist.Primary_input _ -> Alcotest.fail "PI inside path");
      check_edges rest
    | _ -> ()
  in
  check_edges r.Compiled.Timing.critical_path

let test_path_delays_sum () =
  let r = fresh c17 in
  let sum =
    List.fold_left (fun acc i -> acc +. r.Compiled.Timing.gate_delay.(i)) 0.0 r.Compiled.Timing.critical_path
  in
  Alcotest.(check (float 1e-18)) "path sums to max delay" r.Compiled.Timing.max_delay sum

let test_loads_reflect_fanout () =
  let loads = Oracle.Timing.loads tech c17 () in
  (* Every PI of c17 drives at least one NAND2 pin. *)
  Array.iter
    (fun id -> Alcotest.(check bool) "PI loaded" true (loads.(id) > 0.0))
    (Circuit.Netlist.primary_inputs c17);
  (* Outputs carry the default PO load on top. *)
  Array.iter
    (fun o -> Alcotest.(check bool) "PO load" true (loads.(o) > 0.0))
    c17.Circuit.Netlist.outputs

let test_po_load_slows () =
  let small = fresh c17 ~po_load:1e-15 in
  let big = fresh c17 ~po_load:1e-14 in
  Alcotest.(check bool) "heavier PO load is slower" true
    (big.Compiled.Timing.max_delay > small.Compiled.Timing.max_delay)

let test_aging_slows () =
  let fresh_r = fresh c432 in
  let d =
    Compiled.Timing.degradation ~fresh:fresh_r ~aged:(aged c432 ~stage_dvth:(fun ~gate:_ ~stage:_ -> 0.04))
  in
  Alcotest.(check bool) "positive degradation" true (d > 0.0);
  (* 40 mV on a ~0.85 V overdrive at alpha 1.3: a few percent at most
     (only rise delays are hit). *)
  Alcotest.(check bool) "sane magnitude" true (d < 0.10)

let test_gate_scale () =
  let r1 = fresh c17 in
  let r2 =
    Compiled.Timing.fresh_result ~scale:(Array.make (Circuit.Netlist.n_nodes c17) 2.0) (timing c17)
  in
  Alcotest.(check (float 1e-18)) "uniform 2x scaling" (2.0 *. r1.Compiled.Timing.max_delay)
    r2.Compiled.Timing.max_delay

let test_hotter_is_slower () =
  (* At low Vdd-Vth sensitivity this could reverse, but at PTM-90 values
     the Vth drop with temperature does not compensate the 400K overdrive;
     delay model uses Vth(T), so hotter means smaller Vth, faster gate.
     Check the direction our model actually encodes: Vth(400K) < Vth(330K)
     so the 400K circuit is FASTER in this simplified model. *)
  let hot = fresh c432 ~temp_k:400.0 in
  let cold = fresh c432 ~temp_k:330.0 in
  Alcotest.(check bool) "vth-dominated temperature scaling" true
    (hot.Compiled.Timing.max_delay < cold.Compiled.Timing.max_delay)

let test_slopes_bounded_by_worst () =
  (* Slope-resolved arrivals can never exceed the worst-slope analysis
     (each stage's max(rise, fall) bounds both slopes). *)
  let worst = fresh c432 in
  let slopes = Compiled.Timing.analyze_slopes tech c432 ~temp_k:400.0 ~stage_dvth:Compiled.Timing.no_aging () in
  Alcotest.(check bool) "bounded" true
    (slopes.Compiled.Timing.max_delay_rf <= worst.Compiled.Timing.max_delay +. 1e-18);
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate _ ->
        Alcotest.(check bool) "per-node bound" true
          (Float.max slopes.Compiled.Timing.rise.(i) slopes.Compiled.Timing.fall.(i)
          <= worst.Compiled.Timing.arrival.(i) +. 1e-18))
    c432.Circuit.Netlist.nodes

let test_slope_parity_inverter_chain () =
  (* Two chained inverters: the output rise tracks the input rise through
     two inversions; a PMOS shift on the SECOND stage leaves the output
     fall path (...rise of stage 1 -> fall of stage 2) untouched. *)
  let b = Circuit.Netlist.Builder.create ~name:"chain" in
  let a = Circuit.Netlist.Builder.input b "a" in
  let i1 = Circuit.Netlist.Builder.not_ b a in
  let i2 = Circuit.Netlist.Builder.not_ b i1 in
  Circuit.Netlist.Builder.output b i2;
  let net = Circuit.Netlist.Builder.finish b in
  let aged ~gate ~stage = ignore stage; if gate = i2 then 0.05 else 0.0 in
  let fresh_s = Compiled.Timing.analyze_slopes tech net ~temp_k:400.0 ~stage_dvth:Compiled.Timing.no_aging () in
  let aged_s = Compiled.Timing.analyze_slopes tech net ~temp_k:400.0 ~stage_dvth:aged () in
  Alcotest.(check (float 1e-18)) "fall of output unaffected by its PMOS"
    fresh_s.Compiled.Timing.fall.(i2) aged_s.Compiled.Timing.fall.(i2);
  Alcotest.(check bool) "rise of output slowed" true
    (aged_s.Compiled.Timing.rise.(i2) > fresh_s.Compiled.Timing.rise.(i2))

let test_slope_degradation_below_worst_slope () =
  let sp = Logic.Signal_prob.analytic c432 ~input_sp:(Array.make 36 0.5) in
  let aging = Aging.Circuit_aging.default_config ~t_standby:400.0 () in
  let stage_dvth =
    Aging.Circuit_aging.stage_dvth_map aging c432 ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed
  in
  let worst = Compiled.Timing.degradation ~fresh:(fresh c432) ~aged:(aged c432 ~stage_dvth) in
  let resolved =
    Compiled.Timing.slope_degradation
      ~fresh:(Compiled.Timing.analyze_slopes tech c432 ~temp_k:400.0 ~stage_dvth:Compiled.Timing.no_aging ())
      ~aged:(Compiled.Timing.analyze_slopes tech c432 ~temp_k:400.0 ~stage_dvth ())
  in
  Alcotest.(check bool) "NBTI-only: slope-resolved is smaller" true (resolved < worst);
  Alcotest.(check bool) "but still positive" true (resolved > 0.0)

let test_degradation_of_identical_is_zero () =
  let r = fresh c17 in
  Alcotest.(check (float 0.0)) "zero" 0.0 (Compiled.Timing.degradation ~fresh:r ~aged:r)

let () =
  Alcotest.run "sta"
    [
      ( "timing",
        [
          Alcotest.test_case "fresh positive" `Quick test_fresh_positive;
          Alcotest.test_case "arrival monotone" `Quick test_arrival_monotone_along_fanin;
          Alcotest.test_case "max delay at outputs" `Quick test_max_delay_is_output_arrival;
          Alcotest.test_case "critical path structure" `Quick test_critical_path_structure;
          Alcotest.test_case "path delays sum" `Quick test_path_delays_sum;
          Alcotest.test_case "loads reflect fanout" `Quick test_loads_reflect_fanout;
          Alcotest.test_case "PO load slows" `Quick test_po_load_slows;
          Alcotest.test_case "aging slows" `Quick test_aging_slows;
          Alcotest.test_case "gate scale hook" `Quick test_gate_scale;
          Alcotest.test_case "temperature direction" `Quick test_hotter_is_slower;
          Alcotest.test_case "self degradation zero" `Quick test_degradation_of_identical_is_zero;
          Alcotest.test_case "slopes bounded by worst" `Quick test_slopes_bounded_by_worst;
          Alcotest.test_case "slope parity on a chain" `Quick test_slope_parity_inverter_chain;
          Alcotest.test_case "slope degradation below worst" `Quick test_slope_degradation_below_worst_slope;
        ] );
    ]
