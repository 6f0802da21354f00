type insertion = {
  netlist : Circuit.Netlist.t;
  sleep_input : int;
  controlled : int list;
  controlled_new : int list;
  standby_vector : bool array;
  input_sp : float array;
}

(* Forcing-to-1 replacement: the cell one input wider, or None when the
   family has no such variant (NOR/OR/XOR and saturated fan-in). *)
let replacement cell =
  match cell.Cell.Stdcell.name with
  | "INV" -> Some (Cell.Stdcell.nand_ 2)
  | "NAND2" -> Some (Cell.Stdcell.nand_ 3)
  | "NAND3" -> Some (Cell.Stdcell.nand_ 4)
  | _ -> None

let replaceable cell = replacement cell <> None

let candidate_gates (t : Circuit.Netlist.t) ~standby_vector ~(timing : Compiled.Timing.result)
    ~slack ~slack_eps =
  let values = Logic.Eval.eval t ~inputs:standby_vector in
  let fanout = Circuit.Netlist.fanout t in
  let scored = ref [] in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { cell; _ } ->
        (* The replacement cell keeps its worst-case drive (stacks are
           re-sized), so the only cost is extra input capacitance — even
           critical drivers are eligible; the verified greedy in
           {!evaluate} rejects any insertion that does not pay off. *)
        ignore timing;
        if replaceable cell && not values.(i) then begin
          let critical_fanouts =
            Array.fold_left
              (fun acc g -> if slack.Compiled.Slack.slack.(g) <= slack_eps then acc + 1 else acc)
              0 fanout.(i)
          in
          if critical_fanouts > 0 then scored := (i, critical_fanouts) :: !scored
        end)
    t.Circuit.Netlist.nodes;
  List.sort (fun (_, a) (_, b) -> compare b a) !scored

let insert (t : Circuit.Netlist.t) ~standby_vector ~input_sp ~gates =
  let n = Circuit.Netlist.n_nodes t in
  let sleep_input = n in
  let selected = Hashtbl.create 8 in
  List.iter
    (fun g ->
      (match t.Circuit.Netlist.nodes.(g) with
      | Circuit.Netlist.Gate { cell; _ } when replaceable cell -> ()
      | _ -> invalid_arg "Control_point.insert: gate is not replaceable");
      Hashtbl.replace selected g ())
    gates;
  let nodes =
    Array.append
      (Array.mapi
         (fun i node ->
           if not (Hashtbl.mem selected i) then node
           else begin
             match node with
             | Circuit.Netlist.Gate { cell; fanin; name } ->
               let cell' = Option.get (replacement cell) in
               Circuit.Netlist.Gate
                 { cell = cell'; fanin = Array.append fanin [| sleep_input |]; name }
             | Circuit.Netlist.Primary_input _ -> assert false
           end)
         t.Circuit.Netlist.nodes)
      [| Circuit.Netlist.Primary_input { name = "sleep_n" } |]
  in
  (* create re-sorts topologically (the new PI sits after its readers). *)
  let netlist = Circuit.Netlist.create ~name:(t.Circuit.Netlist.name ^ "_cp") nodes ~outputs:t.Circuit.Netlist.outputs in
  (* Locate the sleep PI and the controlled gates in the re-sorted ids. *)
  let find_by_name name =
    let found = ref (-1) in
    Array.iteri (fun i _ -> if Circuit.Netlist.node_name netlist i = name then found := i)
      netlist.Circuit.Netlist.nodes;
    assert (!found >= 0);
    !found
  in
  let sleep_id = find_by_name "sleep_n" in
  let controlled_new =
    List.map (fun g -> find_by_name (Circuit.Netlist.node_name t g)) gates
  in
  (* The sleep PI is appended last in PI order only if sorting kept it so;
     build the extended vector/SP by PI name order instead. *)
  let pis = Circuit.Netlist.primary_inputs netlist in
  let old_pis = Circuit.Netlist.primary_inputs t in
  let old_index = Hashtbl.create 64 in
  Array.iteri (fun k id -> Hashtbl.replace old_index (Circuit.Netlist.node_name t id) k) old_pis;
  let extended source ~sleep_value =
    Array.map
      (fun id ->
        let name = Circuit.Netlist.node_name netlist id in
        if id = sleep_id then sleep_value
        else source.(Hashtbl.find old_index name))
      pis
  in
  {
    netlist;
    sleep_input = sleep_id;
    controlled = gates;
    controlled_new;
    standby_vector = extended standby_vector ~sleep_value:false;
    input_sp = extended input_sp ~sleep_value:1.0;
  }

(* Duty table of the rewritten circuit, with the sleep pin's own PMOS
   excluded on the controlled gates: that device is parallel to the logic
   PMOS and is held on through standby (gate at 0 - it IS NBTI-stressed),
   but sleep_n never toggles in active mode, so it never carries a
   functional transition and its threshold drift does not slow the gate. *)
let corrected_duties (ins : insertion) ~node_sp =
  let duties =
    Aging.Circuit_aging.duty_table ins.netlist ~node_sp
      ~standby:(Aging.Circuit_aging.Standby_vector ins.standby_vector)
  in
  let standby_values = Logic.Eval.eval ins.netlist ~inputs:ins.standby_vector in
  List.iter
    (fun g ->
      match ins.netlist.Circuit.Netlist.nodes.(g) with
      | Circuit.Netlist.Primary_input _ -> assert false
      | Circuit.Netlist.Gate { cell; fanin; _ } ->
        let sleep_pin = Cell.Network.Input (Array.length fanin - 1) in
        let sp = Array.map (fun f -> node_sp.(f)) fanin in
        let standby_vector = Array.map (fun f -> standby_values.(f)) fanin in
        let active_by_dev = Cell.Cell_nbti.stress_probabilities cell ~sp in
        let standby_by_dev = Cell.Cell_nbti.stressed_under_vector cell ~vector:standby_vector in
        let n_stages = Array.length cell.Cell.Stdcell.stages in
        duties.(g) <-
          Array.init n_stages (fun stage ->
              List.fold_left2
                (fun (a_acc, s_acc) (a : Cell.Cell_nbti.device_duty)
                     (st : Cell.Cell_nbti.device_stress) ->
                  if a.Cell.Cell_nbti.stage = stage && a.Cell.Cell_nbti.pin <> sleep_pin then
                    ( Float.max a_acc a.Cell.Cell_nbti.duty,
                      Float.max s_acc (if st.Cell.Cell_nbti.stressed then 1.0 else 0.0) )
                  else (a_acc, s_acc))
                (0.0, 0.0) active_by_dev standby_by_dev))
    ins.controlled_new;
  duties

type evaluation = {
  baseline_fresh : float;
  baseline_degradation : float;
  fresh_with_cp : float;
  degradation_with_cp : float;
  aged_baseline : float;
  aged_with_cp : float;
  aged_improvement : float;
  area_overhead : float;
  n_control_points : int;
}

let circuit_area (t : Circuit.Netlist.t) =
  Array.fold_left
    (fun acc node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> acc
      | Circuit.Netlist.Gate { cell; _ } -> acc +. Cell.Stdcell.area cell)
    0.0 t.Circuit.Netlist.nodes

let evaluate config (t : Circuit.Netlist.t) ~standby_vector ?(budget = 10)
    ?(slack_eps_fraction = 0.15) () =
  let input_sp = Array.make (Circuit.Netlist.n_primary_inputs t) 0.5 in
  let node_sp = Logic.Signal_prob.analytic t ~input_sp in
  let baseline =
    Aging.Circuit_aging.analyze config t ~node_sp
      ~standby:(Aging.Circuit_aging.Standby_vector standby_vector) ()
  in
  let slack = Compiled.Slack.compute t ~timing:baseline.Aging.Circuit_aging.aged () in
  let eps = slack_eps_fraction *. baseline.Aging.Circuit_aging.aged.Compiled.Timing.max_delay in
  let candidates =
    List.map fst
      (candidate_gates t ~standby_vector ~timing:baseline.Aging.Circuit_aging.aged ~slack
         ~slack_eps:eps)
  in
  let analyze_insertion ins =
    let node_sp' = Logic.Signal_prob.analytic ins.netlist ~input_sp:ins.input_sp in
    Aging.Circuit_aging.analyze_with_duties config ins.netlist
      ~duties:(corrected_duties ins ~node_sp:node_sp') ()
  in
  let aged_of gates =
    if gates = [] then baseline.Aging.Circuit_aging.aged.Compiled.Timing.max_delay
    else
      (analyze_insertion (insert t ~standby_vector ~input_sp ~gates)).Aging.Circuit_aging.aged
        .Compiled.Timing.max_delay
  in
  (* Greedy with verification: each step keeps the single control point
     that most reduces the end-of-life delay; a candidate that does not
     help (the replacement penalty can outweigh the relief) is never
     committed. Trials per step are capped for cost. *)
  let max_trials = 15 in
  let rec grow chosen current remaining =
    if List.length chosen >= budget || remaining = [] then (chosen, current)
    else begin
      let trials = List.filteri (fun i _ -> i < max_trials) remaining in
      let scored = List.map (fun g -> (aged_of (g :: chosen), g)) trials in
      let best_aged, best =
        List.fold_left (fun (ba, bg) (a, g) -> if a < ba then (a, g) else (ba, bg))
          (List.hd scored) (List.tl scored)
      in
      if best_aged >= current -. 1e-18 then (chosen, current)
      else grow (best :: chosen) best_aged (List.filter (fun g -> g <> best) remaining)
    end
  in
  let chosen, aged_with_cp = grow [] (aged_of []) candidates in
  let aged_baseline = baseline.Aging.Circuit_aging.aged.Compiled.Timing.max_delay in
  if chosen = [] then
    {
      baseline_fresh = baseline.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay;
      baseline_degradation = baseline.Aging.Circuit_aging.degradation;
      fresh_with_cp = baseline.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay;
      degradation_with_cp = baseline.Aging.Circuit_aging.degradation;
      aged_baseline;
      aged_with_cp = aged_baseline;
      aged_improvement = 0.0;
      area_overhead = 0.0;
      n_control_points = 0;
    }
  else begin
    let ins = insert t ~standby_vector ~input_sp ~gates:chosen in
    let with_cp = analyze_insertion ins in
    {
      baseline_fresh = baseline.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay;
      baseline_degradation = baseline.Aging.Circuit_aging.degradation;
      fresh_with_cp = with_cp.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay;
      degradation_with_cp = with_cp.Aging.Circuit_aging.degradation;
      aged_baseline;
      aged_with_cp;
      aged_improvement = 1.0 -. (aged_with_cp /. aged_baseline);
      area_overhead = (circuit_area ins.netlist -. circuit_area t) /. circuit_area t;
      n_control_points = List.length chosen;
    }
  end
