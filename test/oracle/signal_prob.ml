(* The boxed Monte-Carlo signal-probability estimator: one private
   stream per 64-vector word block, split in block order, and a
   per-node ones count over each block's packed simulation.
   [Logic.Signal_prob.monte_carlo] must match it at any domain count. *)

let word_block_counts t ~input_sp ~n_pi rng =
  let packed = Array.make n_pi 0L in
  for k = 0 to n_pi - 1 do
    let w = ref 0L in
    for bit = 0 to 63 do
      if Physics.Rng.bernoulli rng ~p:input_sp.(k) then
        w := Int64.logor !w (Int64.shift_left 1L bit)
    done;
    packed.(k) <- !w
  done;
  Eval.count_ones t ~inputs:packed

let monte_carlo ?pool ?budget t ~rng ~input_sp ~n_vectors =
  let n_pi = Circuit.Netlist.n_primary_inputs t in
  assert (Array.length input_sp = n_pi);
  let n_words = (n_vectors + 63) / 64 in
  let total = n_words * 64 in
  let p = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let per_block =
    Parallel.Pool.init_rng p ?budget ~rng n_words (fun rng _ ->
        word_block_counts t ~input_sp ~n_pi rng)
  in
  let counts = Array.make (Circuit.Netlist.n_nodes t) 0 in
  Array.iter (fun ones -> Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) ones) per_block;
  Array.map (fun c -> float_of_int c /. float_of_int total) counts
