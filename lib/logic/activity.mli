(** Switching activity estimation: the fraction of clock cycles each net
    toggles. Signal probabilities weight the paper's NBTI stress duties;
    activities weight dynamic power — the other half of the power picture
    the thermal model needs.

    Estimation is Monte-Carlo over independent vector pairs (temporal
    independence at the inputs: a primary input with signal probability
    [p] toggles with probability [2 p (1-p)]), using the bit-parallel
    simulator — 64 pairs per evaluation. *)

val monte_carlo :
  ?pool:Parallel.Pool.t ->
  Circuit.Netlist.t ->
  rng:Physics.Rng.t ->
  input_sp:float array ->
  n_pairs:int ->
  float array
(** Per-node toggle probability per cycle, in [0, 1]. [n_pairs] is rounded
    up to a multiple of 64. Pair blocks run in parallel on [pool] with one
    split stream per block, so the estimate is independent of the domain
    count. Runs on the compiled arena ({!Compiled.Arena}). *)

val input_activity : sp:float -> float
(** The temporal-independence input activity [2 p (1-p)]. *)
