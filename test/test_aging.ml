(* Tests for circuit-level aging: the duty extraction -> dvth map -> STA
   composition. *)

let c17 = Circuit.Generators.c17 ()
let sp = Logic.Signal_prob.analytic c17 ~input_sp:(Array.make 5 0.5)
let config = Aging.Circuit_aging.default_config ()

let map standby = Aging.Circuit_aging.stage_dvth_map config c17 ~node_sp:sp ~standby

let all_stage_dvth t f =
  let acc = ref [] in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { cell; _ } ->
        for stage = 0 to Array.length cell.Cell.Stdcell.stages - 1 do
          acc := f ~gate:i ~stage :: !acc
        done)
    t.Circuit.Netlist.nodes;
  !acc

let test_default_config () =
  Alcotest.(check (float 0.0)) "ten-year lifetime" Physics.Units.ten_years
    config.Aging.Circuit_aging.time;
  Alcotest.(check (float 0.0)) "active temperature" 400.0
    config.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref

let test_dvth_bounded_by_dc () =
  let dc =
    Nbti.Vth_shift.dvth_dc_ref config.Aging.Circuit_aging.params config.Aging.Circuit_aging.tech
      (Nbti.Vth_shift.nominal_pmos config.Aging.Circuit_aging.tech)
      ~time:config.Aging.Circuit_aging.time
  in
  let shifts = all_stage_dvth c17 (map Aging.Circuit_aging.Standby_all_stressed) in
  List.iter
    (fun v -> Alcotest.(check bool) "0 <= dvth <= DC" true (v >= 0.0 && v <= dc))
    shifts

let test_bounding_states_order () =
  let worst = map Aging.Circuit_aging.Standby_all_stressed in
  let relaxed = map Aging.Circuit_aging.Standby_all_relaxed in
  let vector = map (Aging.Circuit_aging.Standby_vector (Array.make 5 false)) in
  let w = all_stage_dvth c17 worst and r = all_stage_dvth c17 relaxed and v = all_stage_dvth c17 vector in
  List.iter2
    (fun hi mid -> Alcotest.(check bool) "worst >= vector" true (hi >= mid -. 1e-12))
    w v;
  List.iter2
    (fun mid lo -> Alcotest.(check bool) "vector >= relaxed" true (mid >= lo -. 1e-12))
    v r

let test_analyze_consistency () =
  let a =
    Aging.Circuit_aging.analyze config c17 ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  Alcotest.(check bool) "aged slower than fresh" true
    (a.Aging.Circuit_aging.aged.Compiled.Timing.max_delay > a.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay);
  Alcotest.(check bool) "degradation in a plausible band" true
    (a.Aging.Circuit_aging.degradation > 0.005 && a.Aging.Circuit_aging.degradation < 0.15);
  Alcotest.(check bool) "max dvth tens of mV" true
    (a.Aging.Circuit_aging.max_dvth > 0.005 && a.Aging.Circuit_aging.max_dvth < 0.1)

let test_worst_case_config_pessimistic () =
  (* The paper's thesis: assuming the worst-case (active) temperature for
     the standby phase overestimates degradation when standby is cool. *)
  let temperature_aware =
    Aging.Circuit_aging.analyze config c17 ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  let pessimistic =
    Aging.Circuit_aging.analyze (Aging.Circuit_aging.worst_case_config config) c17 ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  Alcotest.(check bool) "worst-case temp overestimates" true
    (pessimistic.Aging.Circuit_aging.degradation > temperature_aware.Aging.Circuit_aging.degradation)

let test_relaxed_below_stressed_circuit_level () =
  let worst =
    Aging.Circuit_aging.analyze config c17 ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  let best =
    Aging.Circuit_aging.analyze config c17 ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_relaxed ()
  in
  Alcotest.(check bool) "bounding order at circuit level" true
    (worst.Aging.Circuit_aging.degradation > best.Aging.Circuit_aging.degradation)

let test_longer_lifetime_more_degradation () =
  let short = { config with Aging.Circuit_aging.time = Physics.Units.years 1.0 } in
  let a1 =
    Aging.Circuit_aging.analyze short c17 ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  let a10 =
    Aging.Circuit_aging.analyze config c17 ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed ()
  in
  Alcotest.(check bool) "monotone in lifetime" true
    (a10.Aging.Circuit_aging.degradation > a1.Aging.Circuit_aging.degradation)

let test_pbti_never_reduces_degradation () =
  let with_pbti = Aging.Circuit_aging.default_config ~pbti_scale:0.5 () in
  List.iter
    (fun standby ->
      let d cfg = (Aging.Circuit_aging.analyze cfg c17 ~node_sp:sp ~standby ()).Aging.Circuit_aging.degradation in
      Alcotest.(check bool) "adding PBTI can only slow the circuit" true
        (d with_pbti >= d config -. 1e-12))
    [
      Aging.Circuit_aging.Standby_all_stressed;
      Aging.Circuit_aging.Standby_all_relaxed;
      Aging.Circuit_aging.Standby_vector (Array.make 5 true);
    ]

let test_pbti_narrows_the_standby_lever () =
  (* The mirror effect: the all-1 state that relaxes every PMOS stresses
     every NMOS, so with PBTI on the worst-to-best gap shrinks. Visible at
     a hot standby; at 330 K the Arrhenius factor suppresses the standby
     NMOS stress below the rise/fall crossover and nothing changes. *)
  let gap cfg =
    let d standby =
      (Aging.Circuit_aging.analyze cfg c17 ~node_sp:sp ~standby ()).Aging.Circuit_aging.degradation
    in
    d Aging.Circuit_aging.Standby_all_stressed -. d Aging.Circuit_aging.Standby_all_relaxed
  in
  let hot = Aging.Circuit_aging.default_config ~t_standby:400.0 () in
  let hot_pbti = Aging.Circuit_aging.default_config ~t_standby:400.0 ~pbti_scale:0.5 () in
  Alcotest.(check bool) "internal-node-control potential shrinks" true
    (gap hot_pbti < gap hot);
  Alcotest.(check bool) "all-relaxed now ages the NMOS" true
    ((Aging.Circuit_aging.analyze hot_pbti c17 ~node_sp:sp
        ~standby:Aging.Circuit_aging.Standby_all_relaxed ())
       .Aging.Circuit_aging.degradation
    > (Aging.Circuit_aging.analyze hot c17 ~node_sp:sp
         ~standby:Aging.Circuit_aging.Standby_all_relaxed ())
        .Aging.Circuit_aging.degradation)

let test_nmos_duty_table_mirror () =
  let pmos = Aging.Circuit_aging.duty_table c17 ~node_sp:sp ~standby:Aging.Circuit_aging.Standby_all_stressed in
  let nmos =
    Aging.Circuit_aging.duty_table ~polarity:`Nmos c17 ~node_sp:sp
      ~standby:Aging.Circuit_aging.Standby_all_stressed
  in
  Array.iteri
    (fun i stages ->
      Array.iteri
        (fun s (_, standby_p) ->
          let _, standby_n = nmos.(i).(s) in
          Alcotest.(check (float 0.0)) "PMOS bound 1" 1.0 standby_p;
          Alcotest.(check (float 0.0)) "NMOS bound 0" 0.0 standby_n)
        stages)
    pmos

(* Property: for random standby vectors the degradation is always between
   the two bounding states. *)
let prop_vector_between_bounds =
  QCheck.Test.make ~name:"standby vectors degrade between the bounds" ~count:20
    (QCheck.make (QCheck.Gen.int_bound 31))
    (fun bits ->
      let v = Array.init 5 (fun i -> (bits lsr i) land 1 = 1) in
      let d standby =
        (Aging.Circuit_aging.analyze config c17 ~node_sp:sp ~standby ()).Aging.Circuit_aging
          .degradation
      in
      let w = d Aging.Circuit_aging.Standby_all_stressed in
      let r = d Aging.Circuit_aging.Standby_all_relaxed in
      let dv = d (Aging.Circuit_aging.Standby_vector v) in
      dv >= r -. 1e-12 && dv <= w +. 1e-12)

let props = List.map QCheck_alcotest.to_alcotest [ prop_vector_between_bounds ]

let () =
  Alcotest.run "aging"
    [
      ( "circuit-aging",
        [
          Alcotest.test_case "default config" `Quick test_default_config;
          Alcotest.test_case "dvth bounded by DC" `Quick test_dvth_bounded_by_dc;
          Alcotest.test_case "bounding states order" `Quick test_bounding_states_order;
          Alcotest.test_case "analyze consistency" `Quick test_analyze_consistency;
          Alcotest.test_case "worst-case temperature pessimism" `Quick test_worst_case_config_pessimistic;
          Alcotest.test_case "circuit-level bound order" `Quick test_relaxed_below_stressed_circuit_level;
          Alcotest.test_case "lifetime monotone" `Quick test_longer_lifetime_more_degradation;
          Alcotest.test_case "PBTI never reduces" `Quick test_pbti_never_reduces_degradation;
          Alcotest.test_case "PBTI narrows the lever" `Quick test_pbti_narrows_the_standby_lever;
          Alcotest.test_case "NMOS duty mirror" `Quick test_nmos_duty_table_mirror;
        ] );
      ("properties", props);
    ]
