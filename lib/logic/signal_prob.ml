(* Tolerate (and clamp away) the ~1e-16 excursions that accumulated
   floating-point rounding can produce in downstream fixed points. *)
let check_sp sp =
  Array.map
    (fun p ->
      if p < -1e-9 || p > 1.0 +. 1e-9 then
        invalid_arg "Signal_prob: probabilities must be in [0,1]";
      Float.max 0.0 (Float.min 1.0 p))
    sp

let analytic (t : Circuit.Netlist.t) ~input_sp =
  let input_sp = check_sp input_sp in
  let pis = Circuit.Netlist.primary_inputs t in
  assert (Array.length input_sp = Array.length pis);
  let sp = Array.make (Circuit.Netlist.n_nodes t) 0.0 in
  Array.iteri (fun k id -> sp.(id) <- input_sp.(k)) pis;
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { cell; fanin; _ } ->
        let fan_sp = Array.map (fun f -> sp.(f)) fanin in
        let stage_sp = Cell.Stdcell.stage_output_probability cell ~sp:fan_sp in
        sp.(i) <- stage_sp.(Array.length stage_sp - 1))
    t.Circuit.Netlist.nodes;
  sp

(* One stream per word block, split in block order, the same per-PI
   draw order within a block as the boxed reference the tests keep, and
   per-node integer ones counts whose merge order cannot change the
   totals: bit-identical to that reference at any domain count. *)
let monte_carlo ?pool ?budget t ~rng ~input_sp ~n_vectors =
  let input_sp = check_sp input_sp in
  if n_vectors < 1 then invalid_arg "Signal_prob.monte_carlo: n_vectors must be >= 1";
  assert (Array.length input_sp = Circuit.Netlist.n_primary_inputs t);
  let n_words = (n_vectors + 63) / 64 in
  let total = n_words * 64 in
  let p = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let a = Compiled.Arena.get t in
  let rngs = Parallel.Pool.split_streams rng n_words in
  let counts = Array.make (Circuit.Netlist.n_nodes t) 0 in
  Compiled.Logic.sp_counts p ?budget a ~rngs ~input_sp ~counts;
  Array.map (fun c -> float_of_int c /. float_of_int total) counts

let uniform_inputs t p = Array.make (Circuit.Netlist.n_primary_inputs t) p
