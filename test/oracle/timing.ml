(* The boxed static timing analyzer: arrival times propagate forward
   through the netlist's boxed node array, each gate's delay from
   [Cell.Cell_delay.delay] under its fanout load and per-stage threshold
   shifts, and the critical path is recovered by backtracking the
   max-arrival chain. [Compiled.Timing] must match it bit for bit. *)

let analyze tech (t : Circuit.Netlist.t) ?po_load ?(gate_scale = fun _ -> 1.0)
    ?(stage_dvth_n = Sta.Timing.no_aging) ~temp_k ~stage_dvth () =
  let node_load = Sta.Timing.loads tech t ?po_load () in
  let n = Circuit.Netlist.n_nodes t in
  let arrival = Array.make n 0.0 in
  let gate_delay = Array.make n 0.0 in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { cell; fanin; _ } ->
        let input_arrival = Array.fold_left (fun acc f -> Float.max acc arrival.(f)) 0.0 fanin in
        let d =
          gate_scale i
          *. Cell.Cell_delay.delay tech cell ~load:node_load.(i) ~temp_k
               ~stage_dvth:(fun stage -> stage_dvth ~gate:i ~stage)
               ~stage_dvth_n:(fun stage -> stage_dvth_n ~gate:i ~stage)
               ()
        in
        gate_delay.(i) <- d;
        arrival.(i) <- input_arrival +. d)
    t.Circuit.Netlist.nodes;
  let critical_output =
    Array.fold_left
      (fun best o -> if arrival.(o) > arrival.(best) then o else best)
      t.Circuit.Netlist.outputs.(0) t.Circuit.Netlist.outputs
  in
  let rec backtrack i acc =
    match t.Circuit.Netlist.nodes.(i) with
    | Circuit.Netlist.Primary_input _ -> i :: acc
    | Circuit.Netlist.Gate { fanin; _ } ->
      if Array.length fanin = 0 then i :: acc
      else begin
        let pred =
          Array.fold_left (fun best f -> if arrival.(f) > arrival.(best) then f else best)
            fanin.(0) fanin
        in
        backtrack pred (i :: acc)
      end
  in
  {
    Sta.Timing.arrival;
    gate_delay;
    max_delay = arrival.(critical_output);
    critical_path = backtrack critical_output [];
    critical_output;
  }

let fresh tech t ?po_load ~temp_k () =
  analyze tech t ?po_load ~temp_k ~stage_dvth:Sta.Timing.no_aging ()
