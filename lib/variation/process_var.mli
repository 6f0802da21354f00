(** Process variation and NBTI: the circuit delay distribution over the
    lifetime (paper Fig. 12 and the Wang/Reddy observation [51] that the
    mean grows while the variance shrinks with stress time).

    Each Monte-Carlo sample draws an independent V_th0 offset per gate
    (random dopant fluctuation model), evaluates the fresh critical path
    (delay scales as [(V_dd - V_th0)^-alpha]) and the aged one. Aging is
    compensating: a low-V_th0 gate is fast but sits at a higher oxide
    field, so it degrades more — which is exactly why the aged
    distribution is tighter than the fresh one. *)

type config = {
  aging : Aging.Circuit_aging.config;
  sigma_vth : float;  (** per-gate V_th0 standard deviation [V] *)
  n_samples : int;
}

val default_config : ?sigma_vth:float -> ?n_samples:int -> Aging.Circuit_aging.config -> config
(** Defaults: sigma = 15 mV, 500 samples. *)

type sample = { fresh_delay : float; aged_delay : float }

type study = {
  samples : sample array;
  fresh : Physics.Stats.summary;
  aged : Physics.Stats.summary;
  fresh_3sigma : float * float;  (** (mean - 3 sigma, mean + 3 sigma) *)
  aged_3sigma : float * float;
}

val run :
  ?pool:Parallel.Pool.t ->
  config ->
  Circuit.Netlist.t ->
  node_sp:float array ->
  standby:Aging.Circuit_aging.standby_state ->
  rng:Physics.Rng.t ->
  study
(** The Fig. 12 study. Samples run in parallel on [pool] (default
    {!Parallel.Pool.default}), one task per sample, each on an
    independent stream split from [rng] in sample order — the study is
    bit-identical across domain counts (including a sequential pool),
    which the parallel-determinism tests pin. Runs on the compiled arena
    with the duty table and equivalent schedules hoisted out of the
    sample loop ({!Compiled.Variation}). *)

val crossover :
  study -> bool
(** The paper's headline observation on C880: the aged distribution's
    lower 3-sigma bound exceeds the fresh distribution's upper 3-sigma
    bound — aging dominates variation. *)
