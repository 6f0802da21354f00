let eval (t : Circuit.Netlist.t) ~inputs =
  let pis = Circuit.Netlist.primary_inputs t in
  assert (Array.length inputs = Array.length pis);
  let values = Array.make (Circuit.Netlist.n_nodes t) false in
  Array.iteri (fun k id -> values.(id) <- inputs.(k)) pis;
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { cell; fanin; _ } ->
        values.(i) <- Cell.Stdcell.eval cell (Array.map (fun f -> values.(f)) fanin))
    t.Circuit.Netlist.nodes;
  values

let eval_outputs t ~inputs =
  let values = eval t ~inputs in
  Array.map (fun o -> values.(o)) t.Circuit.Netlist.outputs

let input_vector_of_int t idx =
  let n = Circuit.Netlist.n_primary_inputs t in
  Array.init n (fun i -> (idx lsr i) land 1 = 1)
