let input_activity ~sp = 2.0 *. sp *. (1.0 -. sp)

(* One stream per block of 64 pairs, the v1-then-v2 draw order and XOR
   popcounts as integers: bit-identical to the boxed estimator the tests
   keep, at any domain count. *)
let monte_carlo ?pool (t : Circuit.Netlist.t) ~rng ~input_sp ~n_pairs =
  if n_pairs < 1 then invalid_arg "Activity.monte_carlo: n_pairs must be >= 1";
  assert (Array.length input_sp = Circuit.Netlist.n_primary_inputs t);
  let n_words = (n_pairs + 63) / 64 in
  let total = n_words * 64 in
  let p = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let a = Compiled.Arena.get t in
  let rngs = Parallel.Pool.split_streams rng n_words in
  let toggles = Array.make (Circuit.Netlist.n_nodes t) 0 in
  Compiled.Logic.activity_counts p a ~rngs ~input_sp ~toggles;
  Array.map (fun c -> float_of_int c /. float_of_int total) toggles
