(* The boxed Monte-Carlo switching-activity estimator: per block of 64
   vector pairs on a private stream, the first vector drawn
   input-by-input, then the second, then two packed simulations and a
   per-node XOR popcount. [Logic.Activity.monte_carlo] must match it at
   any domain count. *)

let pair_block_toggles (t : Circuit.Netlist.t) ~input_sp ~n_pi rng =
  let pack sp =
    let w = ref 0L in
    for bit = 0 to 63 do
      if Physics.Rng.bernoulli rng ~p:sp then w := Int64.logor !w (Int64.shift_left 1L bit)
    done;
    !w
  in
  let draw () =
    let v = Array.make n_pi 0L in
    for k = 0 to n_pi - 1 do
      v.(k) <- pack input_sp.(k)
    done;
    v
  in
  let v1 = draw () in
  let v2 = draw () in
  let r1 = Eval.eval_packed t ~inputs:v1 in
  let r2 = Eval.eval_packed t ~inputs:v2 in
  Array.mapi (fun i w1 -> Eval.popcount (Int64.logxor w1 r2.(i))) r1

let monte_carlo ?pool (t : Circuit.Netlist.t) ~rng ~input_sp ~n_pairs =
  let n_pi = Circuit.Netlist.n_primary_inputs t in
  assert (Array.length input_sp = n_pi);
  let n_words = (n_pairs + 63) / 64 in
  let total = n_words * 64 in
  let p = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let per_block =
    Parallel.Pool.init_rng p ~rng n_words (fun rng _ -> pair_block_toggles t ~input_sp ~n_pi rng)
  in
  let toggles = Array.make (Circuit.Netlist.n_nodes t) 0 in
  Array.iter (fun block -> Array.iteri (fun i c -> toggles.(i) <- toggles.(i) + c) block) per_block;
  Array.map (fun c -> float_of_int c /. float_of_int total) toggles
