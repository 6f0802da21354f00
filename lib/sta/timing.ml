type result = {
  arrival : float array;
  gate_delay : float array;
  max_delay : float;
  critical_path : int list;
  critical_output : int;
}

let default_po_load tech = 4.0 *. Cell.Cell_delay.input_capacitance tech Cell.Stdcell.inv ~pin_index:0

(* Drain diffusion capacitance of a gate's output stage: roughly half a
   gate capacitance per unit device width hanging off the output node. *)
let drain_cap tech (cell : Cell.Stdcell.t) =
  let stages = cell.Cell.Stdcell.stages in
  let out = stages.(Array.length stages - 1) in
  let width net =
    List.fold_left (fun acc (_, m) -> acc +. m.Device.Mosfet.wl) 0.0 (Cell.Network.devices net)
  in
  0.5 *. tech.Device.Tech.cg_per_wl
  *. (width out.Cell.Stdcell.pull_up +. width out.Cell.Stdcell.pull_down)

let loads tech (t : Circuit.Netlist.t) ?po_load () =
  let po_load = match po_load with Some l -> l | None -> default_po_load tech in
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
        | Circuit.Netlist.Gate { cell; _ } -> cap +. drain_cap tech cell
      in
      result.(i) <- (cap +. if is_out.(i) then po_load else 0.0))
    fanout;
  result

let no_aging ~gate:_ ~stage:_ = 0.0

let degradation ~fresh ~aged =
  assert (fresh.max_delay > 0.0);
  (aged.max_delay -. fresh.max_delay) /. fresh.max_delay

type slope_result = { rise : float array; fall : float array; max_delay_rf : float }

let analyze_slopes tech (t : Circuit.Netlist.t) ?po_load ?(stage_dvth_n = no_aging) ~temp_k
    ~stage_dvth () =
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
  { rise; fall; max_delay_rf }

let slope_degradation ~fresh ~aged =
  assert (fresh.max_delay_rf > 0.0);
  (aged.max_delay_rf -. fresh.max_delay_rf) /. fresh.max_delay_rf
