type breakdown = { dynamic : float; leakage : float; total : float }

let dynamic tech (t : Circuit.Netlist.t) ~activity ~freq =
  if freq <= 0.0 then invalid_arg "Power.dynamic: frequency must be positive";
  assert (Array.length activity = Circuit.Netlist.n_nodes t);
  let loads = Compiled.Timing.loads (Compiled.Arena.get t) ~tech () in
  let vdd = tech.Device.Tech.vdd in
  let energy = ref 0.0 in
  Array.iteri (fun i a -> energy := !energy +. (a *. loads.(i))) activity;
  0.5 *. !energy *. vdd *. vdd *. freq

let leakage_at tech (t : Circuit.Netlist.t) ~node_sp ~temp_k =
  let tables = Leakage.Circuit_leakage.build_tables tech t ~temp_k in
  Leakage.Circuit_leakage.expected_leakage tables t ~node_sp *. tech.Device.Tech.vdd

let breakdown_at tech t ~node_sp ~activity ~freq ~temp_k =
  let dynamic = dynamic tech t ~activity ~freq in
  let leakage = leakage_at tech t ~node_sp ~temp_k in
  { dynamic; leakage; total = dynamic +. leakage }

type operating_point = {
  temp_k : float;
  per_block : breakdown;
  chip_power : float;
  iterations : int;
}

let operating_point tech model (t : Circuit.Netlist.t) ~node_sp ~activity ~freq ~n_blocks =
  if n_blocks <= 0.0 then invalid_arg "Power.operating_point: n_blocks must be positive";
  (* Dynamic power is temperature-independent in this model; only leakage
     participates in the feedback. Damped fixed point on T. *)
  let p_dyn = dynamic tech t ~activity ~freq in
  let temp = ref model.Thermal.Rc_model.t_amb in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < 100 do
    incr iterations;
    let p_leak = leakage_at tech t ~node_sp ~temp_k:!temp in
    let chip = n_blocks *. (p_dyn +. p_leak) in
    let t_next = Thermal.Rc_model.steady_state model ~power:chip in
    if t_next > 600.0 then failwith "thermal runaway";
    let t_damped = !temp +. (0.5 *. (t_next -. !temp)) in
    if Float.abs (t_damped -. !temp) < 0.01 then converged := true;
    temp := t_damped
  done;
  let per_block = breakdown_at tech t ~node_sp ~activity ~freq ~temp_k:!temp in
  {
    temp_k = !temp;
    per_block;
    chip_power = n_blocks *. per_block.total;
    iterations = !iterations;
  }
