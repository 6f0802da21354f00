(** Signal probabilities: the fraction of active-mode time each net spends
    at logic 1. These drive the per-PMOS stress duty factors of the NBTI
    analysis (paper Section 3.3: "the signal probability for each edge in
    the circuit is derived statistically by simulating a large number of
    input vectors") and the expected-leakage computation (eq. 24).

    Two estimators:
    - [analytic]: exact per-gate propagation under the net-independence
      assumption (fast, deterministic; reconvergent fanout makes it
      approximate at circuit level);
    - [monte_carlo]: bit-parallel random simulation, which captures the
      correlations and is the paper's method. The ablation bench compares
      the two. *)

val analytic : Circuit.Netlist.t -> input_sp:float array -> float array
(** Probability of logic 1 per node. [input_sp] in PI order, each in
    [0, 1]. *)

val monte_carlo :
  ?pool:Parallel.Pool.t ->
  ?budget:Parallel.Budget.t ->
  Circuit.Netlist.t ->
  rng:Physics.Rng.t ->
  input_sp:float array ->
  n_vectors:int ->
  float array
(** Estimates over [n_vectors] random vectors (rounded up to a multiple of
    64 lanes). 64-vector word blocks are simulated in parallel on [pool]
    (default {!Parallel.Pool.default}), each on its own stream split from
    [rng] in block order — the estimate is bit-identical for any domain
    count, including a sequential pool. [budget] (default unlimited) is
    polled per block; an exhausted budget raises
    {!Parallel.Budget.Deadline_exceeded}. Runs on the compiled arena
    ({!Compiled.Arena}), cached per netlist. *)

val uniform_inputs : Circuit.Netlist.t -> float -> float array
(** An input SP array with every PI at the given probability (the paper
    uses 0.5). *)
