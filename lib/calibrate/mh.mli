(** Adaptive random-walk Metropolis–Hastings over an unnormalized log
    posterior on [R^k].

    Multi-chain: each chain consumes one private split of the caller's
    {!Physics.Rng.t} (via {!Parallel.Pool.init_rng}, one stream per chain in
    chain order), so the full set of chains is bit-identical at any domain
    count. During warmup the global proposal scale is tuned toward
    {!target_acceptance} by Robbins–Monro updates on its log, and the
    proposal shape is preconditioned with the Cholesky factor of the
    running warmup covariance (Haario-style adaptive Metropolis — the JEP
    posterior is strongly correlated); after warmup both are frozen so the
    kernel is a valid, fixed Metropolis kernel for the retained draws.

    Each chain checks the deadline budget every {!poll_interval}
    iterations — the "between sampler blocks" polling the server relies on
    for long calibrations — and runs under an [Obs.Trace] span
    ["calibrate.chain"]. *)

val target_acceptance : float
(** 0.3 — between the 0.234 asymptotic optimum for random-walk MH and the
    0.44 one-dimensional optimum; right for a 5-parameter posterior. *)

val poll_interval : int
(** Iterations between deadline polls inside a chain (64). *)

type chain = {
  draws : float array array;  (** [samples] retained draws, post-warmup, thinned *)
  accept_rate : float;  (** fraction of accepted proposals after warmup *)
  final_scale : float;  (** tuned global proposal scale multiplier *)
}

val run_chain :
  log_post:(float array -> float) ->
  init_mu:float array ->
  init_sd:float array ->
  warmup:int ->
  samples:int ->
  thin:int ->
  budget:Parallel.Budget.t ->
  chain_index:int ->
  rng:Physics.Rng.t ->
  chain
(** One chain: the start point is drawn overdispersed around [init_mu]
    (±0.5·[init_sd]), runs [warmup] tuning iterations then
    [samples]·[thin] sampling iterations keeping every [thin]-th draw.
    @raise Parallel.Budget.Deadline_exceeded mid-chain when the budget
    expires. *)

val run :
  ?pool:Parallel.Pool.t ->
  ?budget:Parallel.Budget.t ->
  log_post:(float array -> float) ->
  init_mu:float array ->
  init_sd:float array ->
  n_chains:int ->
  warmup:int ->
  samples:int ->
  thin:int ->
  rng:Physics.Rng.t ->
  unit ->
  chain array
(** [n_chains] independent chains fanned out over the pool (chunk 1, one
    chain per work item). Chain [i] always receives the [i]-th split
    stream of [rng] regardless of scheduling. *)
