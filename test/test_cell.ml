(* Tests for the transistor-level standard cell library: networks, logic,
   leakage (stacking effect), NBTI stress extraction and timing. *)

let tech = Device.Tech.ptm_90nm

let check_close ?(eps = 1e-9) msg expected actual = Alcotest.(check (float eps)) msg expected actual

let vec l = Array.of_list l

(* --- Network --- *)

let test_network_devices_order () =
  let net =
    Cell.Network.Series
      [ Cell.Network.pmos (Cell.Network.Input 0); Cell.Network.pmos (Cell.Network.Input 1) ]
  in
  let pins = List.map fst (Cell.Network.devices net) in
  Alcotest.(check bool)
    "top-to-bottom order" true
    (pins = [ Cell.Network.Input 0; Cell.Network.Input 1 ])

let test_network_dual () =
  let pd =
    Cell.Network.Parallel
      [
        Cell.Network.Series
          [ Cell.Network.nmos (Cell.Network.Input 0); Cell.Network.nmos (Cell.Network.Input 1) ];
        Cell.Network.nmos (Cell.Network.Input 2);
      ]
  in
  let pu = Cell.Network.dual pd ~to_polarity:Device.Mosfet.P ~wl:4.0 in
  match pu with
  | Cell.Network.Series [ Cell.Network.Parallel _; Cell.Network.Device { mos; _ } ] ->
    Alcotest.(check bool) "dual polarity" true (mos.Device.Mosfet.polarity = Device.Mosfet.P);
    check_close "dual width" 4.0 mos.Device.Mosfet.wl
  | _ -> Alcotest.fail "dual structure wrong"

let test_network_conducts () =
  let net =
    Cell.Network.Series
      [ Cell.Network.nmos (Cell.Network.Input 0); Cell.Network.nmos (Cell.Network.Input 1) ]
  in
  let on_of inputs pin mos = Cell.Network.device_on ~inputs:(fun p -> inputs p) pin mos in
  let both p = match p with Cell.Network.Input i -> [| true; true |].(i) | _ -> false in
  let one p = match p with Cell.Network.Input i -> [| true; false |].(i) | _ -> false in
  Alcotest.(check bool) "series both on" true (Cell.Network.conducts net ~on:(on_of both));
  Alcotest.(check bool) "series one off" false (Cell.Network.conducts net ~on:(on_of one))

let test_network_validate () =
  Alcotest.check_raises "empty group" (Invalid_argument "Network: empty series/parallel group")
    (fun () -> Cell.Network.validate (Cell.Network.Series []))

let test_conduction_probability () =
  let net =
    Cell.Network.Parallel
      [ Cell.Network.nmos (Cell.Network.Input 0); Cell.Network.nmos (Cell.Network.Input 1) ]
  in
  let p = Cell.Network.conduction_probability net ~p_on:(fun _ _ -> 0.5) in
  check_close ~eps:1e-12 "parallel OR" 0.75 p;
  let ser =
    Cell.Network.Series
      [ Cell.Network.nmos (Cell.Network.Input 0); Cell.Network.nmos (Cell.Network.Input 1) ]
  in
  check_close ~eps:1e-12 "series AND" 0.25
    (Cell.Network.conduction_probability ser ~p_on:(fun _ _ -> 0.5))

let test_scale_widths () =
  let net = Cell.Network.pmos ~wl:2.0 (Cell.Network.Input 0) in
  match Cell.Network.scale_widths net 3.0 with
  | Cell.Network.Device { mos; _ } -> check_close "scaled" 6.0 mos.Device.Mosfet.wl
  | _ -> Alcotest.fail "structure changed"

(* --- Stdcell logic --- *)

let truth name cell f =
  let n = cell.Cell.Stdcell.n_inputs in
  for idx = 0 to (1 lsl n) - 1 do
    let v = Cell.Stdcell.vector_of_index ~n_inputs:n idx in
    Alcotest.(check bool) (Printf.sprintf "%s(%d)" name idx) (f v) (Cell.Stdcell.eval cell v)
  done

let test_inv_buf () =
  truth "INV" Cell.Stdcell.inv (fun v -> not v.(0));
  truth "BUF" Cell.Stdcell.buf (fun v -> v.(0))

let test_nand_nor_family () =
  List.iter
    (fun k ->
      truth
        (Printf.sprintf "NAND%d" k)
        (Cell.Stdcell.nand_ k)
        (fun v -> not (Array.for_all Fun.id v));
      truth (Printf.sprintf "NOR%d" k) (Cell.Stdcell.nor_ k) (fun v -> not (Array.exists Fun.id v));
      truth (Printf.sprintf "AND%d" k) (Cell.Stdcell.and_ k) (fun v -> Array.for_all Fun.id v);
      truth (Printf.sprintf "OR%d" k) (Cell.Stdcell.or_ k) (fun v -> Array.exists Fun.id v))
    [ 2; 3; 4 ]

let test_xor_xnor () =
  truth "XOR2" Cell.Stdcell.xor2 (fun v -> v.(0) <> v.(1));
  truth "XNOR2" Cell.Stdcell.xnor2 (fun v -> v.(0) = v.(1))

let test_aoi_oai () =
  truth "AOI21" Cell.Stdcell.aoi21 (fun v -> not ((v.(0) && v.(1)) || v.(2)));
  truth "OAI21" Cell.Stdcell.oai21 (fun v -> not ((v.(0) || v.(1)) && v.(2)))

let test_find () =
  Alcotest.(check string) "lookup" "NAND3" (Cell.Stdcell.find "NAND3").Cell.Stdcell.name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Cell.Stdcell.find "NAND9"))

let test_library_unique () =
  let names = List.map (fun c -> c.Cell.Stdcell.name) Cell.Stdcell.library in
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int) "library size" 18 (List.length names)

let test_stage_output_probability () =
  (* XOR2 with independent SPs p, q has P(out) = p(1-q) + q(1-p). *)
  let sp = [| 0.3; 0.8 |] in
  let probs = Cell.Stdcell.stage_output_probability Cell.Stdcell.xor2 ~sp in
  let expected = (0.3 *. 0.2) +. (0.8 *. 0.7) in
  check_close ~eps:1e-12 "xor output SP" expected probs.(Array.length probs - 1)

let test_all_pmos_counts () =
  Alcotest.(check int) "INV has 1 PMOS" 1 (List.length (Cell.Stdcell.all_pmos Cell.Stdcell.inv));
  Alcotest.(check int) "NAND2 has 2" 2 (List.length (Cell.Stdcell.all_pmos (Cell.Stdcell.nand_ 2)));
  Alcotest.(check int) "XOR2 has 8" 8 (List.length (Cell.Stdcell.all_pmos Cell.Stdcell.xor2))

let test_area_positive_ordered () =
  Alcotest.(check bool)
    "NAND3 bigger than NAND2" true
    (Cell.Stdcell.area (Cell.Stdcell.nand_ 3) > Cell.Stdcell.area (Cell.Stdcell.nand_ 2))

let test_make_rejects_shorted () =
  (* A "cell" whose pull-up and pull-down are both an always-on path for
     some input is rejected by the complementarity check. *)
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Cell.Stdcell.make ~name:"BROKEN" ~n_inputs:1
            [
              {
                Cell.Stdcell.pull_up = Cell.Network.pmos (Cell.Network.Input 0);
                pull_down = Cell.Network.pmos (Cell.Network.Input 0);
              };
            ]);
       false
     with Invalid_argument _ -> true)

let test_vector_index_roundtrip () =
  for idx = 0 to 15 do
    Alcotest.(check int) "roundtrip" idx
      (Cell.Stdcell.index_of_vector (Cell.Stdcell.vector_of_index ~n_inputs:4 idx))
  done

(* --- Cell_leakage: the stacking effect --- *)

let lut cell = Cell.Cell_leakage.build_lut tech cell ~temp_k:400.0

let test_stacking_nor () =
  (* NOR: all-1 turns the whole PMOS stack off -> minimum leakage. *)
  let l = lut (Cell.Stdcell.nor_ 2) in
  let (best, best_i), (_, worst_i) = Cell.Cell_leakage.extremes l in
  Alcotest.(check bool) "NOR2 minimum at 11" true (best = [| true; true |]);
  Alcotest.(check bool) "spread is real" true (worst_i > 1.5 *. best_i)

let test_stacking_nand () =
  (* NAND: all-0 stacks the NMOS chain off -> minimum leakage. *)
  let l = lut (Cell.Stdcell.nand_ 2) in
  let (best, _), _ = Cell.Cell_leakage.extremes l in
  Alcotest.(check bool) "NAND2 minimum at 00" true (best = [| false; false |])

let test_deeper_stack_leaks_less () =
  let l3 = lut (Cell.Stdcell.nand_ 3) and l2 = lut (Cell.Stdcell.nand_ 2) in
  let (_, min3), _ = Cell.Cell_leakage.extremes l3 in
  let (_, min2), _ = Cell.Cell_leakage.extremes l2 in
  (* Per-device, the 3-stack suppresses harder; totals include the wider
     devices, so compare against the 2-stack scaled up. *)
  Alcotest.(check bool) "3-stack floor below 2-stack ceiling" true (min3 < 2.0 *. min2)

let test_leakage_positive_everywhere () =
  List.iter
    (fun cell ->
      let l = lut cell in
      Array.iter
        (fun i -> Alcotest.(check bool) (cell.Cell.Stdcell.name ^ " positive") true (i > 0.0))
        l.Cell.Cell_leakage.currents)
    Cell.Stdcell.library

let test_leakage_temperature_monotone () =
  let hot = Cell.Cell_leakage.build_lut tech Cell.Stdcell.inv ~temp_k:400.0 in
  let cold = Cell.Cell_leakage.build_lut tech Cell.Stdcell.inv ~temp_k:330.0 in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "hotter leaks more" true (v > cold.Cell.Cell_leakage.currents.(i)))
    hot.Cell.Cell_leakage.currents

let test_expected_leakage_weights () =
  let l = lut Cell.Stdcell.inv in
  let i0 = Cell.Cell_leakage.lookup l [| false |] and i1 = Cell.Cell_leakage.lookup l [| true |] in
  check_close ~eps:1e-15 "expectation" ((0.3 *. i1) +. (0.7 *. i0))
    (Cell.Cell_leakage.expected l ~sp:[| 0.3 |]);
  check_close ~eps:1e-18 "degenerate sp" i1 (Cell.Cell_leakage.expected l ~sp:[| 1.0 |])

let test_internal_nodes_between_rails () =
  (* NAND3 at 000: the two internal stack nodes settle strictly between
     the rails, upper node higher. *)
  let cell = Cell.Stdcell.nand_ 3 in
  let stage = cell.Cell.Stdcell.stages.(0) in
  let inputs _ = false in
  match Cell.Cell_leakage.reduce stage.Cell.Stdcell.pull_down ~inputs ~vdd:1.0 with
  | Cell.Cell_leakage.Blocked net ->
    let nodes = Cell.Cell_leakage.internal_nodes tech net ~v_hi:1.0 ~v_lo:0.0 ~temp_k:400.0 in
    Alcotest.(check int) "two internal nodes" 2 (List.length nodes);
    List.iter
      (fun v -> Alcotest.(check bool) "within rails" true (v > 0.0 && v < 1.0))
      nodes;
    (match nodes with
    | [ upper; lower ] -> Alcotest.(check bool) "ordered" true (upper >= lower)
    | _ -> Alcotest.fail "expected two nodes")
  | Cell.Cell_leakage.Wire -> Alcotest.fail "NMOS stack at 000 cannot conduct"

let test_reduce_wire () =
  let stage = Cell.Stdcell.inv.Cell.Stdcell.stages.(0) in
  (match Cell.Cell_leakage.reduce stage.Cell.Stdcell.pull_up ~inputs:(fun _ -> false) ~vdd:1.0 with
  | Cell.Cell_leakage.Wire -> ()
  | Cell.Cell_leakage.Blocked _ -> Alcotest.fail "PMOS with low gate conducts");
  match Cell.Cell_leakage.reduce stage.Cell.Stdcell.pull_up ~inputs:(fun _ -> true) ~vdd:1.0 with
  | Cell.Cell_leakage.Blocked _ -> ()
  | Cell.Cell_leakage.Wire -> Alcotest.fail "PMOS with high gate blocks"

let test_off_current_zero_without_bias () =
  let net = Cell.Cell_leakage.Leak { gate_v = 0.0; mos = Device.Mosfet.nmos ~wl:1.0 () } in
  check_close "no vds no current" 0.0
    (Cell.Cell_leakage.off_current tech net ~v_hi:0.0 ~v_lo:0.0 ~temp_k:400.0)

(* --- Cell_nbti: stress extraction --- *)

let stress_flags cell vector =
  List.map (fun d -> d.Cell.Cell_nbti.stressed) (Cell.Cell_nbti.stressed_under_vector cell ~vector)

let test_inv_stress () =
  Alcotest.(check (list bool)) "input 0 stresses" [ true ] (stress_flags Cell.Stdcell.inv (vec [ false ]));
  Alcotest.(check (list bool)) "input 1 relaxes" [ false ] (stress_flags Cell.Stdcell.inv (vec [ true ]))

let test_nand2_stress () =
  (* Parallel PMOS: each stressed iff its own input is 0. *)
  Alcotest.(check (list bool)) "00" [ true; true ] (stress_flags (Cell.Stdcell.nand_ 2) (vec [ false; false ]));
  Alcotest.(check (list bool)) "10" [ false; true ] (stress_flags (Cell.Stdcell.nand_ 2) (vec [ true; false ]));
  Alcotest.(check (list bool)) "01" [ true; false ] (stress_flags (Cell.Stdcell.nand_ 2) (vec [ false; true ]));
  Alcotest.(check (list bool)) "11" [ false; false ] (stress_flags (Cell.Stdcell.nand_ 2) (vec [ true; true ]))

let test_nor2_stress () =
  (* Series PMOS stack: the lower device is stressed only when everything
     above it conducts (paper Section 4.1). *)
  Alcotest.(check (list bool)) "00: both" [ true; true ] (stress_flags (Cell.Stdcell.nor_ 2) (vec [ false; false ]));
  Alcotest.(check (list bool)) "01: top only" [ true; false ] (stress_flags (Cell.Stdcell.nor_ 2) (vec [ false; true ]));
  Alcotest.(check (list bool)) "10: none (source floats)" [ false; false ]
    (stress_flags (Cell.Stdcell.nor_ 2) (vec [ true; false ]));
  Alcotest.(check (list bool)) "11: none" [ false; false ] (stress_flags (Cell.Stdcell.nor_ 2) (vec [ true; true ]))

let test_nor3_stress_prefix () =
  (* Input 001 (a=0,b=0,c=1): the two upper PMOS are stressed, not the
     bottom. *)
  Alcotest.(check (list bool)) "prefix rule" [ true; true; false ]
    (stress_flags (Cell.Stdcell.nor_ 3) (vec [ false; false; true ]))

let test_and2_second_stage_stress () =
  (* AND2 = NAND2 + INV. With inputs 11 the NAND stage output is 0, so the
     inverter's PMOS is stressed even though no NAND PMOS is. *)
  let flags = Cell.Cell_nbti.stressed_under_vector (Cell.Stdcell.and_ 2) ~vector:(vec [ true; true ]) in
  let nand_flags = List.filter (fun (d : Cell.Cell_nbti.device_stress) -> d.stage = 0) flags in
  let inv_flags = List.filter (fun (d : Cell.Cell_nbti.device_stress) -> d.stage = 1) flags in
  Alcotest.(check bool) "NAND PMOS relaxed" true
    (List.for_all (fun d -> not d.Cell.Cell_nbti.stressed) nand_flags);
  Alcotest.(check bool) "INV PMOS stressed" true
    (List.for_all (fun d -> d.Cell.Cell_nbti.stressed) inv_flags)

let test_stress_probability_matches_enumeration () =
  (* For independent inputs, the analytic stress probability must equal
     the exhaustive average of the boolean extraction. *)
  List.iter
    (fun cell ->
      let n = cell.Cell.Stdcell.n_inputs in
      let sp = Array.init n (fun i -> 0.2 +. (0.15 *. float_of_int i)) in
      let analytic = Cell.Cell_nbti.stress_probabilities cell ~sp in
      let expected = Array.make (List.length analytic) 0.0 in
      for idx = 0 to (1 lsl n) - 1 do
        let v = Cell.Stdcell.vector_of_index ~n_inputs:n idx in
        let p = ref 1.0 in
        Array.iteri (fun i b -> p := !p *. (if b then sp.(i) else 1.0 -. sp.(i))) v;
        List.iteri
          (fun j d -> if d.Cell.Cell_nbti.stressed then expected.(j) <- expected.(j) +. !p)
          (Cell.Cell_nbti.stressed_under_vector cell ~vector:v)
      done;
      List.iteri
        (fun j d ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s device %d" cell.Cell.Stdcell.name j)
            expected.(j) d.Cell.Cell_nbti.duty)
        analytic)
    [ Cell.Stdcell.inv; Cell.Stdcell.nand_ 2; Cell.Stdcell.nor_ 2; Cell.Stdcell.nor_ 3;
      Cell.Stdcell.and_ 2; Cell.Stdcell.aoi21; Cell.Stdcell.oai21 ]

let test_stress_duties_pairing () =
  let duties =
    Cell.Cell_nbti.stress_duties (Cell.Stdcell.nor_ 2) ~sp:[| 0.5; 0.5 |]
      ~standby_vector:(vec [ false; true ])
  in
  match duties with
  | [ (a_top, s_top); (a_bot, s_bot) ] ->
    check_close ~eps:1e-12 "top active duty = P(a=0)" 0.5 a_top;
    check_close ~eps:1e-12 "bottom active duty = P(a=0)P(b=0)" 0.25 a_bot;
    check_close "top stressed in standby" 1.0 s_top;
    check_close "bottom relaxed in standby" 0.0 s_bot
  | _ -> Alcotest.fail "expected two PMOS"

let test_worst_stage_duties () =
  let active, standby =
    Cell.Cell_nbti.worst_stage_duties (Cell.Stdcell.nor_ 2) ~sp:[| 0.5; 0.5 |]
      ~standby_vector:(vec [ false; true ]) ~stage:0
  in
  check_close "worst active" 0.5 active;
  check_close "standby stressed" 1.0 standby

(* --- Cell_nbti: PBTI mirror (NMOS) --- *)

let nmos_flags cell vector =
  List.map
    (fun d -> d.Cell.Cell_nbti.stressed)
    (Cell.Cell_nbti.stressed_under_vector ~polarity:`Nmos cell ~vector)

let test_nmos_inv_stress () =
  Alcotest.(check (list bool)) "input 1 stresses the NMOS" [ true ] (nmos_flags Cell.Stdcell.inv (vec [ true ]));
  Alcotest.(check (list bool)) "input 0 relaxes" [ false ] (nmos_flags Cell.Stdcell.inv (vec [ false ]))

let test_nmos_nand2_prefix_from_ground () =
  (* NAND2 pull-down is a series stack [in0 top; in1 bottom(gnd)]: the
     bottom device is stressed iff its own input is 1, the top one only
     when both are (its source is grounded through the bottom). Device
     order in the result follows the reversed (ground-first) walk. *)
  Alcotest.(check (list bool)) "11: both" [ true; true ] (nmos_flags (Cell.Stdcell.nand_ 2) (vec [ true; true ]));
  Alcotest.(check (list bool)) "01: bottom only" [ true; false ] (nmos_flags (Cell.Stdcell.nand_ 2) (vec [ false; true ]));
  Alcotest.(check (list bool)) "10: none (source floats)" [ false; false ] (nmos_flags (Cell.Stdcell.nand_ 2) (vec [ true; false ]));
  Alcotest.(check (list bool)) "00: none" [ false; false ] (nmos_flags (Cell.Stdcell.nand_ 2) (vec [ false; false ]))

let test_nmos_nor2_own_input_rule () =
  (* Parallel NMOS: each stressed iff its own input is 1. *)
  Alcotest.(check (list bool)) "10" [ true; false ] (nmos_flags (Cell.Stdcell.nor_ 2) (vec [ true; false ]));
  Alcotest.(check (list bool)) "11" [ true; true ] (nmos_flags (Cell.Stdcell.nor_ 2) (vec [ true; true ]))

let test_nmos_probability_matches_enumeration () =
  List.iter
    (fun cell ->
      let n = cell.Cell.Stdcell.n_inputs in
      let sp = Array.init n (fun i -> 0.25 +. (0.2 *. float_of_int i)) in
      let analytic = Cell.Cell_nbti.stress_probabilities ~polarity:`Nmos cell ~sp in
      let expected = Array.make (List.length analytic) 0.0 in
      for idx = 0 to (1 lsl n) - 1 do
        let v = Cell.Stdcell.vector_of_index ~n_inputs:n idx in
        let p = ref 1.0 in
        Array.iteri (fun i b -> p := !p *. (if b then sp.(i) else 1.0 -. sp.(i))) v;
        List.iteri
          (fun j d -> if d.Cell.Cell_nbti.stressed then expected.(j) <- expected.(j) +. !p)
          (Cell.Cell_nbti.stressed_under_vector ~polarity:`Nmos cell ~vector:v)
      done;
      List.iteri
        (fun j d ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s nmos device %d" cell.Cell.Stdcell.name j)
            expected.(j) d.Cell.Cell_nbti.duty)
        analytic)
    [ Cell.Stdcell.inv; Cell.Stdcell.nand_ 2; Cell.Stdcell.nand_ 3; Cell.Stdcell.nor_ 2;
      Cell.Stdcell.aoi21; Cell.Stdcell.oai21 ]

let test_nmos_mirror_of_pmos () =
  (* De Morgan mirror: NAND2's NMOS stack walked from the ground end
     matches NOR2's PMOS stack walked from the V_dd end with the inputs
     inverted AND reversed (the ground-end NMOS pin is in1, the
     V_dd-end PMOS pin is in0). *)
  for idx = 0 to 3 do
    let v = Cell.Stdcell.vector_of_index ~n_inputs:2 idx in
    let mirrored = [| not v.(1); not v.(0) |] in
    let nmos = nmos_flags (Cell.Stdcell.nand_ 2) v in
    let pmos = stress_flags (Cell.Stdcell.nor_ 2) mirrored in
    Alcotest.(check (list bool)) (Printf.sprintf "mirror %d" idx) pmos nmos
  done

(* --- Cell_delay --- *)

let test_worst_strength () =
  (* NAND2 pull-up: two parallel wl=2 PMOS; worst single-input case is one
     conducting device. *)
  let stage = (Cell.Stdcell.nand_ 2).Cell.Stdcell.stages.(0) in
  check_close "NAND2 pull-up" 2.0
    (Cell.Cell_delay.worst_strength stage.Cell.Stdcell.pull_up ~on_polarity:Device.Mosfet.P);
  (* NAND2 pull-down: series of two wl=2 NMOS -> harmonic 1. *)
  check_close "NAND2 pull-down" 1.0
    (Cell.Cell_delay.worst_strength stage.Cell.Stdcell.pull_down ~on_polarity:Device.Mosfet.N);
  (* NOR2 pull-up: series of two wl=4 -> 2. *)
  let nor = (Cell.Stdcell.nor_ 2).Cell.Stdcell.stages.(0) in
  check_close "NOR2 pull-up" 2.0
    (Cell.Cell_delay.worst_strength nor.Cell.Stdcell.pull_up ~on_polarity:Device.Mosfet.P)

let test_input_capacitance () =
  let c = Cell.Cell_delay.input_capacitance tech (Cell.Stdcell.nand_ 2) ~pin_index:0 in
  (* PMOS wl 2 + NMOS wl 2 = 4 squares of gate cap. *)
  check_close ~eps:1e-20 "NAND2 pin cap" (4.0 *. tech.Device.Tech.cg_per_wl) c

let test_delay_positive_all_cells () =
  List.iter
    (fun cell ->
      let load = Cell.Cell_delay.fo4_load tech cell in
      let d = Cell.Cell_delay.fresh_delay tech cell ~load ~temp_k:400.0 in
      Alcotest.(check bool) (cell.Cell.Stdcell.name ^ " ps-scale delay") true (d > 1e-13 && d < 1e-9))
    Cell.Stdcell.library

let test_multistage_slower () =
  let load = Cell.Cell_delay.fo4_load tech Cell.Stdcell.inv in
  let inv = Cell.Cell_delay.fresh_delay tech Cell.Stdcell.inv ~load ~temp_k:400.0 in
  let xor = Cell.Cell_delay.fresh_delay tech Cell.Stdcell.xor2 ~load ~temp_k:400.0 in
  Alcotest.(check bool) "four-NAND XOR slower than INV" true (xor > 1.5 *. inv)

let test_aged_delay_increases () =
  let cell = Cell.Stdcell.nand_ 2 in
  let load = Cell.Cell_delay.fo4_load tech cell in
  let fresh = Cell.Cell_delay.fresh_delay tech cell ~load ~temp_k:400.0 in
  let aged = Cell.Cell_delay.delay tech cell ~load ~temp_k:400.0 ~stage_dvth:(fun _ -> 0.05) () in
  Alcotest.(check bool) "aging slows" true (aged > fresh);
  (* The alpha-power model: 50mV shift on a 0.78-0.07 V overdrive is
     several percent. *)
  Alcotest.(check bool) "magnitude sane" true ((aged -. fresh) /. fresh > 0.03 && (aged -. fresh) /. fresh < 0.25)

let test_delay_linear_in_load () =
  let cell = Cell.Stdcell.inv in
  let d1 = Cell.Cell_delay.fresh_delay tech cell ~load:1e-15 ~temp_k:400.0 in
  let d2 = Cell.Cell_delay.fresh_delay tech cell ~load:2e-15 ~temp_k:400.0 in
  check_close ~eps:1e-16 "linear" (2.0 *. d1) d2

(* --- Characterization + Liberty --- *)

let test_characterize_tables () =
  let c = Cell.Characterize.characterize tech (Cell.Stdcell.nand_ 2) () in
  Alcotest.(check int) "two input caps" 2 (Array.length c.Cell.Characterize.input_caps);
  Alcotest.(check int) "default load points" 5 (Array.length c.Cell.Characterize.load_points);
  (* monotone: more load, more delay *)
  for i = 1 to Array.length c.Cell.Characterize.delays - 1 do
    Alcotest.(check bool) "delay monotone in load" true
      (c.Cell.Characterize.delays.(i) > c.Cell.Characterize.delays.(i - 1))
  done;
  Alcotest.(check int) "four leakage states" 4 (Array.length c.Cell.Characterize.leakage_states);
  Alcotest.(check bool) "extremes ordered" true
    (c.Cell.Characterize.leakage_best < c.Cell.Characterize.leakage_worst)

let test_characterize_aging_derates () =
  let fresh = Cell.Characterize.characterize tech (Cell.Stdcell.nor_ 2) () in
  let aged = Cell.Characterize.characterize tech (Cell.Stdcell.nor_ 2) ~dvth:0.046 () in
  let d = Cell.Characterize.derate ~fresh ~aged in
  Alcotest.(check bool) "46 mV derates by several percent" true (d > 0.03 && d < 0.2)

let test_aged_shift_matches_worst_case () =
  let params = Nbti.Rd_model.default_params in
  let schedule =
    Nbti.Schedule.active_standby ~ras:(1.0, 9.0) ~t_active:400.0 ~t_standby:400.0
      ~active_duty:0.5 ~standby_duty:1.0 ()
  in
  let shift = Cell.Characterize.aged_shift params tech ~schedule ~time:Physics.Units.ten_years in
  (* Always-stressed at 400 K equals the DC envelope. *)
  let dc =
    Nbti.Vth_shift.dvth_dc_ref params tech (Nbti.Vth_shift.nominal_pmos tech)
      ~time:Physics.Units.ten_years
  in
  Alcotest.(check (float 1e-6)) "DC envelope" dc shift

let test_liberty_structure () =
  let chars = Cell.Characterize.library_characterization tech () in
  let lib = Cell.Liberty.to_string tech chars in
  Alcotest.(check bool) "library group" true
    (String.length lib > 1000
    && String.sub lib 0 8 = "library ");
  (* one cell group per library cell *)
  let count_substring needle hay =
    let n = String.length needle and h = String.length hay in
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  in
  Alcotest.(check int) "18 cell groups" 18 (count_substring "\n  cell (" lib);
  Alcotest.(check bool) "braces balance" true
    (count_substring "{" lib = count_substring "}" lib)

let test_aged_liberty_slower () =
  let params = Nbti.Rd_model.default_params in
  let schedule =
    Nbti.Schedule.active_standby ~ras:(1.0, 9.0) ~t_active:400.0 ~t_standby:330.0
      ~active_duty:0.5 ~standby_duty:1.0 ()
  in
  let aged = Cell.Liberty.aged_library params tech ~schedule ~time:Physics.Units.ten_years in
  Alcotest.(check bool) "aged name" true
    (try
       ignore (Str.search_forward (Str.regexp_string "_aged") aged 0);
       true
     with Not_found -> false)

(* --- Properties --- *)

let cell_gen =
  QCheck.Gen.oneofl
    [ Cell.Stdcell.inv; Cell.Stdcell.nand_ 2; Cell.Stdcell.nor_ 3; Cell.Stdcell.xor2;
      Cell.Stdcell.aoi21; Cell.Stdcell.oai21 ]

let prop_stress_requires_low_gate =
  QCheck.Test.make ~name:"a stressed PMOS always has its gate input low" ~count:200
    (QCheck.make QCheck.Gen.(pair cell_gen (int_bound 255)))
    (fun (cell, bits) ->
      let n = cell.Cell.Stdcell.n_inputs in
      let v = Array.init n (fun i -> (bits lsr i) land 1 = 1) in
      let outs = Cell.Stdcell.stage_outputs cell v in
      let value = function Cell.Network.Input i -> v.(i) | Cell.Network.Stage_out s -> outs.(s) in
      List.for_all
        (fun d -> (not d.Cell.Cell_nbti.stressed) || not (value d.Cell.Cell_nbti.pin))
        (Cell.Cell_nbti.stressed_under_vector cell ~vector:v))

let prop_leakage_lut_matches_direct =
  QCheck.Test.make ~name:"LUT agrees with direct evaluation" ~count:50
    (QCheck.make QCheck.Gen.(pair cell_gen (int_bound 255)))
    (fun (cell, bits) ->
      let n = cell.Cell.Stdcell.n_inputs in
      let v = Array.init n (fun i -> (bits lsr i) land 1 = 1) in
      let l = Cell.Cell_leakage.build_lut tech cell ~temp_k:400.0 in
      let direct = Cell.Cell_leakage.cell_leakage tech cell ~vector:v ~temp_k:400.0 in
      Float.abs (Cell.Cell_leakage.lookup l v -. direct) < 1e-15)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_stress_requires_low_gate; prop_leakage_lut_matches_direct ]

let () =
  Alcotest.run "cell"
    [
      ( "network",
        [
          Alcotest.test_case "device order" `Quick test_network_devices_order;
          Alcotest.test_case "dual" `Quick test_network_dual;
          Alcotest.test_case "conduction" `Quick test_network_conducts;
          Alcotest.test_case "validation" `Quick test_network_validate;
          Alcotest.test_case "conduction probability" `Quick test_conduction_probability;
          Alcotest.test_case "width scaling" `Quick test_scale_widths;
        ] );
      ( "logic",
        [
          Alcotest.test_case "INV/BUF" `Quick test_inv_buf;
          Alcotest.test_case "NAND/NOR/AND/OR families" `Quick test_nand_nor_family;
          Alcotest.test_case "XOR/XNOR" `Quick test_xor_xnor;
          Alcotest.test_case "AOI/OAI" `Quick test_aoi_oai;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "library uniqueness" `Quick test_library_unique;
          Alcotest.test_case "stage output probability" `Quick test_stage_output_probability;
          Alcotest.test_case "PMOS inventory" `Quick test_all_pmos_counts;
          Alcotest.test_case "area ordering" `Quick test_area_positive_ordered;
          Alcotest.test_case "shorted cell rejected" `Quick test_make_rejects_shorted;
          Alcotest.test_case "vector/index roundtrip" `Quick test_vector_index_roundtrip;
        ] );
      ( "leakage",
        [
          Alcotest.test_case "NOR stacking" `Quick test_stacking_nor;
          Alcotest.test_case "NAND stacking" `Quick test_stacking_nand;
          Alcotest.test_case "deeper stacks" `Quick test_deeper_stack_leaks_less;
          Alcotest.test_case "positive everywhere" `Quick test_leakage_positive_everywhere;
          Alcotest.test_case "temperature monotone" `Quick test_leakage_temperature_monotone;
          Alcotest.test_case "expected weighting" `Quick test_expected_leakage_weights;
          Alcotest.test_case "internal stack nodes" `Quick test_internal_nodes_between_rails;
          Alcotest.test_case "reduce wire/blocked" `Quick test_reduce_wire;
          Alcotest.test_case "zero bias" `Quick test_off_current_zero_without_bias;
        ] );
      ( "nbti-stress",
        [
          Alcotest.test_case "INV" `Quick test_inv_stress;
          Alcotest.test_case "NAND2 own-input rule" `Quick test_nand2_stress;
          Alcotest.test_case "NOR2 prefix rule" `Quick test_nor2_stress;
          Alcotest.test_case "NOR3 prefix rule" `Quick test_nor3_stress_prefix;
          Alcotest.test_case "AND2 second stage" `Quick test_and2_second_stage_stress;
          Alcotest.test_case "probability vs enumeration" `Quick test_stress_probability_matches_enumeration;
          Alcotest.test_case "duty pairing" `Quick test_stress_duties_pairing;
          Alcotest.test_case "worst stage duties" `Quick test_worst_stage_duties;
          Alcotest.test_case "PBTI: INV" `Quick test_nmos_inv_stress;
          Alcotest.test_case "PBTI: NAND2 ground prefix" `Quick test_nmos_nand2_prefix_from_ground;
          Alcotest.test_case "PBTI: NOR2 own input" `Quick test_nmos_nor2_own_input_rule;
          Alcotest.test_case "PBTI: probability vs enumeration" `Quick test_nmos_probability_matches_enumeration;
          Alcotest.test_case "PBTI: De Morgan mirror" `Quick test_nmos_mirror_of_pmos;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "tables" `Quick test_characterize_tables;
          Alcotest.test_case "aging derates" `Quick test_characterize_aging_derates;
          Alcotest.test_case "aged shift = DC envelope" `Quick test_aged_shift_matches_worst_case;
          Alcotest.test_case "liberty structure" `Quick test_liberty_structure;
          Alcotest.test_case "aged liberty" `Quick test_aged_liberty_slower;
        ] );
      ( "delay",
        [
          Alcotest.test_case "worst strengths" `Quick test_worst_strength;
          Alcotest.test_case "input capacitance" `Quick test_input_capacitance;
          Alcotest.test_case "positive everywhere" `Quick test_delay_positive_all_cells;
          Alcotest.test_case "multi-stage slower" `Quick test_multistage_slower;
          Alcotest.test_case "aging slows" `Quick test_aged_delay_increases;
          Alcotest.test_case "linear in load" `Quick test_delay_linear_in_load;
        ] );
      ("properties", props);
    ]
