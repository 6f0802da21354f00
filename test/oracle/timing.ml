(* The boxed static timing analyzer: arrival times propagate forward
   through the netlist's boxed node array, each gate's delay from
   [Cell.Cell_delay.delay] under its fanout load and per-stage threshold
   shifts, and the critical path is recovered by backtracking the
   max-arrival chain. Its load walk reads [Netlist.fanout_pins], and the
   slope-resolved pass is the same walk over [Cell_delay.delay_pair].
   [Compiled.Timing] must match all three bit for bit. *)

(* Capacitive load per node: the gate capacitance of every fanout pin,
   plus each gate's own drain capacitance, plus [po_load] on primary
   outputs. *)
let loads tech (t : Circuit.Netlist.t) ?po_load () =
  let po_load =
    match po_load with Some l -> l | None -> Compiled.Timing.default_po_load tech
  in
  let result = Array.make (Circuit.Netlist.n_nodes t) 0.0 in
  let is_out = Array.make (Circuit.Netlist.n_nodes t) false in
  Array.iter (fun o -> is_out.(o) <- true) t.Circuit.Netlist.outputs;
  let fanout = Circuit.Netlist.fanout_pins t in
  Array.iteri
    (fun i pins ->
      let cap =
        Array.fold_left
          (fun acc (gate_id, pin) ->
            match t.Circuit.Netlist.nodes.(gate_id) with
            | Circuit.Netlist.Gate { cell; _ } ->
              acc +. Cell.Cell_delay.input_capacitance tech cell ~pin_index:pin
            | Circuit.Netlist.Primary_input _ -> acc)
          0.0 pins
      in
      let cap =
        match t.Circuit.Netlist.nodes.(i) with
        | Circuit.Netlist.Primary_input _ -> cap
        | Circuit.Netlist.Gate { cell; _ } -> cap +. Compiled.Timing.drain_cap tech cell
      in
      result.(i) <- (cap +. if is_out.(i) then po_load else 0.0))
    fanout;
  result

let analyze tech (t : Circuit.Netlist.t) ?po_load ?(gate_scale = fun _ -> 1.0)
    ?(stage_dvth_n = Compiled.Timing.no_aging) ~temp_k ~stage_dvth () =
  let node_load = loads tech t ?po_load () in
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
    Compiled.Timing.arrival;
    gate_delay;
    max_delay = arrival.(critical_output);
    critical_path = backtrack critical_output [];
    critical_output;
  }

let fresh tech t ?po_load ~temp_k () =
  analyze tech t ?po_load ~temp_k ~stage_dvth:Compiled.Timing.no_aging ()

let analyze_slopes tech (t : Circuit.Netlist.t) ?po_load ?(stage_dvth_n = Compiled.Timing.no_aging)
    ~temp_k ~stage_dvth () =
  let node_load = loads tech t ?po_load () in
  let n = Circuit.Netlist.n_nodes t in
  let rise = Array.make n 0.0 and fall = Array.make n 0.0 in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { cell; fanin; _ } ->
        let in_rise = Array.fold_left (fun acc f -> Float.max acc rise.(f)) 0.0 fanin in
        let in_fall = Array.fold_left (fun acc f -> Float.max acc fall.(f)) 0.0 fanin in
        let r, fl =
          Cell.Cell_delay.delay_pair tech cell ~load:node_load.(i) ~temp_k
            ~stage_dvth:(fun stage -> stage_dvth ~gate:i ~stage)
            ~stage_dvth_n:(fun stage -> stage_dvth_n ~gate:i ~stage)
            ~input_arrival:(in_rise, in_fall) ()
        in
        rise.(i) <- r;
        fall.(i) <- fl)
    t.Circuit.Netlist.nodes;
  let max_delay_rf =
    Array.fold_left
      (fun acc o -> Float.max acc (Float.max rise.(o) fall.(o)))
      0.0 t.Circuit.Netlist.outputs
  in
  { Compiled.Timing.rise; fall; max_delay_rf }
