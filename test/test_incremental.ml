(* Property suite for the incremental cone-limited re-analysis engine
   (Compiled.Incremental): random single-PI / single-gate edit
   sequences on random DAGs and ISCAS85 circuits (c432, c7552) must
   leave every resident array bit-identical to a from-scratch
   recompute, including the edit -> edit -> revert path back to the
   original state digest; the wired search/sizing paths must be
   bit-identical to their full-pass oracles at 1, 2 and 4 domains. *)

let with_pool = Parallel.Pool.with_pool

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let net_name (net : Circuit.Netlist.t) = net.Circuit.Netlist.name

let check_bits name a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%h vs %h)" name a b) true (bits_equal a b)

let check_floats_exact name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) (Printf.sprintf "%s [%d]" name i) true (bits_equal x b.(i)))
    a

let dag profile_seed n_gates =
  Circuit.Generators.random_dag
    {
      Circuit.Generators.name = Printf.sprintf "dag%d-%d" n_gates profile_seed;
      n_pi = 48;
      n_po = 16;
      n_gates;
      seed = profile_seed;
    }

let analysis_nets = lazy [ Circuit.Generators.by_name "c432"; dag 11 1500 ]

let tables_of net = Leakage.Circuit_leakage.build_tables Device.Tech.ptm_90nm net ~temp_k:400.0

let node_sp_of net =
  Logic.Signal_prob.analytic net ~input_sp:(Logic.Signal_prob.uniform_inputs net 0.5)

let analysis_ctx_of net =
  let tables = tables_of net in
  let config = Aging.Circuit_aging.default_config () in
  Compiled.Incremental.Analysis.ctx
    ~currents:(Leakage.Circuit_leakage.node_currents tables net)
    ~shifts:(Aging.Circuit_aging.shifts config (Compiled.Arena.get net) ~node_sp:(node_sp_of net))
    ()

(* A random edit sequence: mostly single-PI flips (small cones), with
   occasional fresh random vectors to exercise the full-recompute
   fallback, and exact repeats to exercise the zero-flip cache. *)
let edit_sequence rng ~n_pi ~n =
  let current = Array.make n_pi false in
  List.init n (fun _ ->
      let r = Physics.Rng.int rng 10 in
      if r < 7 then begin
        let k = Physics.Rng.int rng n_pi in
        current.(k) <- not current.(k)
      end
      else if r < 9 then
        for k = 0 to n_pi - 1 do
          current.(k) <- Physics.Rng.bool rng
        done;
      (* r = 9: resubmit the current vector unchanged. *)
      Array.copy current)

(* --- Analysis sessions: leakage + dvth + aged STA vs the full pass --- *)

let check_against_analyze name config net ~node_sp s v =
  Compiled.Incremental.Analysis.set_vector s v;
  let oracle =
    Aging.Circuit_aging.analyze config net ~node_sp
      ~standby:(Aging.Circuit_aging.Standby_vector v) ()
  in
  check_bits (name ^ " aged max") oracle.Aging.Circuit_aging.aged.Compiled.Timing.max_delay
    (Compiled.Incremental.Analysis.aged_delay s);
  check_bits (name ^ " degradation") oracle.Aging.Circuit_aging.degradation
    (Compiled.Incremental.Analysis.degradation s);
  check_bits (name ^ " max dvth") oracle.Aging.Circuit_aging.max_dvth
    (Compiled.Incremental.Analysis.max_dvth s);
  let aged = Compiled.Incremental.Analysis.aged_result s in
  check_floats_exact (name ^ " arrivals") oracle.Aging.Circuit_aging.aged.Compiled.Timing.arrival
    aged.Compiled.Timing.arrival;
  check_floats_exact (name ^ " gate delays")
    oracle.Aging.Circuit_aging.aged.Compiled.Timing.gate_delay aged.Compiled.Timing.gate_delay;
  Alcotest.(check (list int))
    (name ^ " critical path")
    oracle.Aging.Circuit_aging.aged.Compiled.Timing.critical_path aged.Compiled.Timing.critical_path

let test_analysis_edits () =
  let rng = Physics.Rng.create ~seed:202 in
  let config = Aging.Circuit_aging.default_config () in
  List.iter
    (fun net ->
      let name = net_name net in
      let node_sp = node_sp_of net in
      let s = Compiled.Incremental.Analysis.session (analysis_ctx_of net) in
      let n_pi = Array.length (Circuit.Netlist.primary_inputs net) in
      List.iter
        (fun v -> check_against_analyze name config net ~node_sp s v)
        (edit_sequence rng ~n_pi ~n:10))
    (Lazy.force analysis_nets)

let test_analysis_c7552_flips () =
  (* The bench-gated workload: single-PI flips on c7552, against the
     full compiled analysis. *)
  let net = Circuit.Generators.by_name "c7552" in
  let config = Aging.Circuit_aging.default_config () in
  let node_sp = node_sp_of net in
  let s = Compiled.Incremental.Analysis.session (analysis_ctx_of net) in
  let n_pi = Array.length (Circuit.Netlist.primary_inputs net) in
  let v = Array.make n_pi false in
  List.iter
    (fun k ->
      v.(k) <- not v.(k);
      check_against_analyze "c7552" config net ~node_sp s (Array.copy v))
    [ 0; 17; 101; n_pi - 1; 17 ]

let test_analysis_revert_digest () =
  List.iter
    (fun net ->
      let name = net_name net in
      let n_pi = Array.length (Circuit.Netlist.primary_inputs net) in
      let s = Compiled.Incremental.Analysis.session (analysis_ctx_of net) in
      let d0 = Compiled.Incremental.Analysis.digest s in
      let v = Array.make n_pi false in
      let set k b =
        v.(k) <- b;
        Compiled.Incremental.Analysis.set_vector s (Array.copy v)
      in
      set 1 true;
      set 5 true;
      set 5 false;
      set 1 false;
      Alcotest.(check string) (name ^ " digest restored") d0
        (Compiled.Incremental.Analysis.digest s))
    (Lazy.force analysis_nets)

let test_analysis_duty_probe () =
  (* Forcing one stage's duty pair must match a full analysis over the
     same modified duty table. *)
  let net = Circuit.Generators.by_name "c432" in
  let config = Aging.Circuit_aging.default_config () in
  let node_sp = node_sp_of net in
  let standby = Aging.Circuit_aging.Standby_vector
      (Array.make (Array.length (Circuit.Netlist.primary_inputs net)) false)
  in
  let duties = Aging.Circuit_aging.duty_table net ~node_sp ~standby in
  let gate =
    (* first gate node *)
    let rec find i = if Array.length duties.(i) > 0 then i else find (i + 1) in
    find 0
  in
  let active, standby_duty = (0.9, 0.8) in
  let s = Compiled.Incremental.Analysis.session (analysis_ctx_of net) in
  Compiled.Incremental.Analysis.set_gate_duty s gate ~stage:0 ~active ~standby:standby_duty;
  let duties' = Array.copy duties in
  duties'.(gate) <- Array.copy duties.(gate);
  duties'.(gate).(0) <- (active, standby_duty);
  let oracle = Aging.Circuit_aging.analyze_with_duties config net ~duties:duties' () in
  check_bits "duty probe aged max" oracle.Aging.Circuit_aging.aged.Compiled.Timing.max_delay
    (Compiled.Incremental.Analysis.aged_delay s);
  check_bits "duty probe max dvth" oracle.Aging.Circuit_aging.max_dvth
    (Compiled.Incremental.Analysis.max_dvth s)

(* --- Co-optimization vs one full analysis per candidate, 1/2/4 domains --- *)

let check_choice name (a : Ivc.Co_opt.choice) (b : Ivc.Co_opt.choice) =
  Alcotest.(check string) (name ^ " vector") (Ivc.Mlv.vector_key a.Ivc.Co_opt.vector)
    (Ivc.Mlv.vector_key b.Ivc.Co_opt.vector);
  check_bits (name ^ " leakage") a.Ivc.Co_opt.leakage b.Ivc.Co_opt.leakage;
  check_bits (name ^ " degradation") a.Ivc.Co_opt.degradation b.Ivc.Co_opt.degradation;
  check_bits (name ^ " aged") a.Ivc.Co_opt.aged_delay b.Ivc.Co_opt.aged_delay

(* The reference answer: one [Circuit_aging.analyze] per candidate, in
   [Co_opt]'s order (degradation, then vector key). *)
let per_candidate_reference config net ~node_sp ~candidates =
  let analyses =
    List.map
      (fun (c : Ivc.Mlv.candidate) ->
        let r =
          Aging.Circuit_aging.analyze config net ~node_sp
            ~standby:(Aging.Circuit_aging.Standby_vector c.Ivc.Mlv.vector) ()
        in
        ( {
            Ivc.Co_opt.vector = c.Ivc.Mlv.vector;
            leakage = c.Ivc.Mlv.leakage;
            degradation = r.Aging.Circuit_aging.degradation;
            aged_delay = r.Aging.Circuit_aging.aged.Compiled.Timing.max_delay;
          },
          r.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay ))
      candidates
  in
  let all =
    List.sort
      (fun (a : Ivc.Co_opt.choice) (b : Ivc.Co_opt.choice) ->
        match compare a.Ivc.Co_opt.degradation b.Ivc.Co_opt.degradation with
        | 0 ->
          compare (Ivc.Mlv.vector_key a.Ivc.Co_opt.vector) (Ivc.Mlv.vector_key b.Ivc.Co_opt.vector)
        | c -> c)
      (List.map fst analyses)
  in
  let best = List.hd all and worst = List.nth all (List.length all - 1) in
  {
    Ivc.Co_opt.best;
    all;
    fresh_delay = snd (List.hd analyses);
    spread = worst.Ivc.Co_opt.degradation -. best.Ivc.Co_opt.degradation;
  }

(* A correlated candidate cluster on c432: one random base vector and
   its single-bit neighbours, like an MLV set; [co_optimize] at 1, 2 and
   4 domains must return the reference's bits. *)
let check_co_opt_domains config =
  let net = Circuit.Generators.by_name "c432" in
  let tables = tables_of net in
  let node_sp = node_sp_of net in
  let n_pi = Array.length (Circuit.Netlist.primary_inputs net) in
  let rng = Physics.Rng.create ~seed:9 in
  let base = Array.init n_pi (fun _ -> Physics.Rng.bool rng) in
  let candidates =
    Ivc.Mlv.evaluate tables net base
    :: List.init 7 (fun i ->
           let v = Array.copy base in
           v.(i * 3) <- not v.(i * 3);
           Ivc.Mlv.evaluate tables net v)
  in
  let reference = per_candidate_reference config net ~node_sp ~candidates in
  List.iter
    (fun domains ->
      with_pool ~domains (fun par ->
          let got = Ivc.Co_opt.co_optimize ~par config tables net ~node_sp ~candidates in
          let name = Printf.sprintf "co_opt @ %d domains" domains in
          check_bits (name ^ " fresh") reference.Ivc.Co_opt.fresh_delay got.Ivc.Co_opt.fresh_delay;
          check_bits (name ^ " spread") reference.Ivc.Co_opt.spread got.Ivc.Co_opt.spread;
          check_choice (name ^ " best") reference.Ivc.Co_opt.best got.Ivc.Co_opt.best;
          Alcotest.(check int) (name ^ " count") (List.length reference.Ivc.Co_opt.all)
            (List.length got.Ivc.Co_opt.all);
          List.iter2 (fun a b -> check_choice (name ^ " all") a b) reference.Ivc.Co_opt.all
            got.Ivc.Co_opt.all))
    [ 1; 2; 4 ]

(* Sessions answer a PMOS-only config. *)
let test_co_opt_domains () = check_co_opt_domains (Aging.Circuit_aging.default_config ())

(* A PBTI config takes [Co_opt]'s per-candidate full pass. *)
let test_co_opt_pbti_domains () =
  check_co_opt_domains (Aging.Circuit_aging.default_config ~pbti_scale:0.5 ())

let test_random_search_budget () =
  (* Satellite: an expired deadline returns the best-so-far (one
     candidate evaluated) instead of raising; the prefix of the RNG
     stream matches the unbounded run's. *)
  let net = Circuit.Generators.by_name "c432" in
  let tables = tables_of net in
  let first =
    Ivc.Mlv.random_search tables net ~rng:(Physics.Rng.create ~seed:8) ~n:1
  in
  let bounded =
    Ivc.Mlv.random_search
      ~budget:(Parallel.Budget.of_timeout_s 0.0)
      tables net ~rng:(Physics.Rng.create ~seed:8) ~n:10_000
  in
  Alcotest.(check string) "expired budget returns first candidate"
    (Ivc.Mlv.vector_key first.Ivc.Mlv.vector)
    (Ivc.Mlv.vector_key bounded.Ivc.Mlv.vector);
  check_bits "expired budget leakage" first.Ivc.Mlv.leakage bounded.Ivc.Mlv.leakage;
  let unbounded =
    Ivc.Mlv.random_search ~budget:Parallel.Budget.unlimited tables net
      ~rng:(Physics.Rng.create ~seed:8) ~n:64
  in
  let plain = Ivc.Mlv.random_search tables net ~rng:(Physics.Rng.create ~seed:8) ~n:64 in
  check_bits "unlimited budget = no budget" plain.Ivc.Mlv.leakage unbounded.Ivc.Mlv.leakage

(* --- Sizing sessions: drive edits and cell swaps --- *)

(* A full boxed STA of [sized], a resized [net], under [net]'s frozen
   shifts (duty pairs survive scaling). *)
let sizing_oracle config net ~node_sp ~standby sized =
  let duties = Oracle.Circuit_aging.duty_table net ~node_sp ~standby in
  let stage_dvth = Oracle.Circuit_aging.stage_dvth_of_duties config ~duties in
  let tech = config.Aging.Circuit_aging.tech in
  let temp_k = config.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
  Oracle.Timing.analyze tech sized ~temp_k ~stage_dvth ()

let sizing_session config net ~node_sp ~standby =
  let duties = Aging.Circuit_aging.duty_table net ~node_sp ~standby in
  let stage_dvth = Aging.Circuit_aging.stage_dvth_of_duties config ~duties in
  let a = Compiled.Arena.get net in
  Compiled.Incremental.Sizing.session a ~tech:config.Aging.Circuit_aging.tech
    ~temp_k:config.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref
    ~dvth:(Compiled.Arena.stage_values a stage_dvth) ()

let gate_ids net =
  let ids = ref [] in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate _ -> ids := i :: !ids)
    net.Circuit.Netlist.nodes;
  Array.of_list (List.rev !ids)

(* Per node, its gate's cell ([inv] for primary inputs, never read). *)
let cells_of (net : Circuit.Netlist.t) =
  Array.map
    (function
      | Circuit.Netlist.Gate { cell; _ } -> cell
      | Circuit.Netlist.Primary_input _ -> Cell.Stdcell.inv)
    net.Circuit.Netlist.nodes

(* [net] with gate [i]'s cell replaced by [cells.(i)]. *)
let with_cells (net : Circuit.Netlist.t) cells =
  Circuit.Netlist.create ~name:net.Circuit.Netlist.name
    (Array.mapi
       (fun i node ->
         match node with
         | Circuit.Netlist.Gate g -> Circuit.Netlist.Gate { g with cell = cells.(i) }
         | Circuit.Netlist.Primary_input _ -> node)
       net.Circuit.Netlist.nodes)
    ~outputs:net.Circuit.Netlist.outputs

(* Drive edits interleaved with cell swaps (a scaled variant of the
   gate's original cell), checked against a full STA of the resized
   netlist after every edit. A drive scales the gate's base cell, which
   a swap replaces: [cells] tracks what the session should hold. *)
let test_sizing_drive_edits () =
  let rng = Physics.Rng.create ~seed:303 in
  let config = Aging.Circuit_aging.default_config () in
  List.iter
    (fun net ->
      let name = net_name net in
      let node_sp = node_sp_of net in
      let standby = Aging.Circuit_aging.Standby_all_stressed in
      let s = sizing_session config net ~node_sp ~standby in
      let gates = gate_ids net in
      (* A few gates take every edit, so drives land on swapped cells. *)
      let edited = Array.init 4 (fun _ -> gates.(Physics.Rng.int rng (Array.length gates))) in
      let orig = cells_of net in
      let base = Array.copy orig in
      let cells = Array.copy orig in
      for edit = 1 to 12 do
        let g = edited.(Physics.Rng.int rng (Array.length edited)) in
        if edit mod 3 = 0 then begin
          let c = Cell.Stdcell.scaled orig.(g) ~drive:[| 0.8; 1.5; 3.0 |].(Physics.Rng.int rng 3) in
          base.(g) <- c;
          cells.(g) <- c;
          Compiled.Incremental.Sizing.set_cell s g c
        end
        else begin
          let d = [| 1.2; 1.44; 2.0; 4.0 |].(Physics.Rng.int rng 4) in
          cells.(g) <- Cell.Stdcell.scaled base.(g) ~drive:d;
          Compiled.Incremental.Sizing.set_drive s g d
        end;
        let oracle = sizing_oracle config net ~node_sp ~standby (with_cells net cells) in
        let edit_name = Printf.sprintf "%s edit %d" name edit in
        check_bits (edit_name ^ " aged max") oracle.Compiled.Timing.max_delay
          (Compiled.Incremental.Sizing.aged_max s);
        let aged = Compiled.Incremental.Sizing.aged_result s in
        check_floats_exact (edit_name ^ " arrivals") oracle.Compiled.Timing.arrival
          aged.Compiled.Timing.arrival;
        Alcotest.(check (list int))
          (edit_name ^ " critical path")
          oracle.Compiled.Timing.critical_path aged.Compiled.Timing.critical_path
      done;
      (* Revert every edit: back to the unsized delays. *)
      let oracle0 = sizing_oracle config net ~node_sp ~standby net in
      Array.iter
        (fun g ->
          if base.(g) != orig.(g) then Compiled.Incremental.Sizing.set_cell s g orig.(g)
          else if cells.(g) != orig.(g) then Compiled.Incremental.Sizing.set_drive s g 1.0)
        gates;
      check_bits (name ^ " reverted aged max") oracle0.Compiled.Timing.max_delay
        (Compiled.Incremental.Sizing.aged_max s))
    [ Circuit.Generators.by_name "c432"; dag 12 800 ]

let test_sizing_cell_swap () =
  let config = Aging.Circuit_aging.default_config () in
  let net = Circuit.Generators.by_name "c432" in
  let node_sp = node_sp_of net in
  let standby = Aging.Circuit_aging.Standby_all_stressed in
  let gates = gate_ids net in
  let g = gates.(Array.length gates / 2) in
  (* Cell swap: replacing a gate's cell with its 2x-scaled variant must
     equal materializing that drive. *)
  let s = sizing_session config net ~node_sp ~standby in
  let cell =
    match net.Circuit.Netlist.nodes.(g) with
    | Circuit.Netlist.Gate { cell; _ } -> cell
    | Circuit.Netlist.Primary_input _ -> assert false
  in
  Compiled.Incremental.Sizing.set_cell s g (Cell.Stdcell.scaled cell ~drive:2.0);
  let drives = Array.make (Circuit.Netlist.n_nodes net) 1.0 in
  drives.(g) <- 2.0;
  let oracle =
    sizing_oracle config net ~node_sp ~standby (Mitigation.Gate_sizing.materialize net ~drives)
  in
  check_bits "cell swap aged max" oracle.Compiled.Timing.max_delay
    (Compiled.Incremental.Sizing.aged_max s)

let test_optimize_matches_boxed () =
  let config = Aging.Circuit_aging.default_config () in
  List.iter
    (fun net ->
      let name = net_name net in
      let node_sp = node_sp_of net in
      let standby = Aging.Circuit_aging.Standby_all_stressed in
      let boxed = Oracle.Gate_sizing.optimize config net ~node_sp ~standby ~margin:0.005 () in
      let incr = Mitigation.Gate_sizing.optimize config net ~node_sp ~standby ~margin:0.005 () in
      check_floats_exact (name ^ " drives") boxed.Mitigation.Gate_sizing.drives
        incr.Mitigation.Gate_sizing.drives;
      check_bits (name ^ " aged before") boxed.Mitigation.Gate_sizing.aged_before
        incr.Mitigation.Gate_sizing.aged_before;
      check_bits (name ^ " aged after") boxed.Mitigation.Gate_sizing.aged_after
        incr.Mitigation.Gate_sizing.aged_after;
      check_bits (name ^ " fresh after") boxed.Mitigation.Gate_sizing.fresh_after
        incr.Mitigation.Gate_sizing.fresh_after;
      check_bits (name ^ " area overhead") boxed.Mitigation.Gate_sizing.area_overhead
        incr.Mitigation.Gate_sizing.area_overhead;
      Alcotest.(check int) (name ^ " iterations") boxed.Mitigation.Gate_sizing.iterations
        incr.Mitigation.Gate_sizing.iterations;
      Alcotest.(check bool) (name ^ " met") boxed.Mitigation.Gate_sizing.met
        incr.Mitigation.Gate_sizing.met)
    [ Circuit.Generators.by_name "c432"; dag 11 1500 ]

let () =
  Alcotest.run "incremental"
    [
      ( "analysis",
        [
          Alcotest.test_case "random edits = full analysis" `Quick test_analysis_edits;
          Alcotest.test_case "c7552 single-PI flips = full analysis" `Quick
            test_analysis_c7552_flips;
          Alcotest.test_case "edit-edit-revert restores digest" `Quick
            test_analysis_revert_digest;
          Alcotest.test_case "duty probe = analyze_with_duties" `Quick test_analysis_duty_probe;
        ] );
      ( "search",
        [
          Alcotest.test_case "co_optimize = full pass, 1/2/4 domains" `Quick
            test_co_opt_domains;
          Alcotest.test_case "PBTI co_optimize = full pass, 1/2/4 domains" `Quick
            test_co_opt_pbti_domains;
          Alcotest.test_case "random_search returns best-so-far on expiry" `Quick
            test_random_search_budget;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "drive edits = materialized full STA" `Quick
            test_sizing_drive_edits;
          Alcotest.test_case "cell swap = materialized drive" `Quick test_sizing_cell_swap;
          Alcotest.test_case "optimize = optimize_boxed" `Quick test_optimize_matches_boxed;
        ] );
    ]
