(** The calibration engine: one entry point tying dataset, model, sampler
    and posterior summary together, with the determinism and deadline
    contracts the server relies on.

    Determinism: {!run} derives every random stream from [config.seed] by
    sequential splitting on the calling domain ({!Parallel.Pool.init_rng}
    semantics), and every reduction over chains or particles
    folds sequentially in item order after the parallel phase — the
    returned posterior is bit-identical at any pool domain count.

    Deadlines: the budget is polled before every pool chunk claim and
    every {!Mh.poll_interval} iterations inside a chain, so an expired
    budget surfaces as {!Parallel.Budget.Deadline_exceeded} mid-sampling
    rather than after the full run. *)

type sampler = Mh | Importance of { particles : int }

type config = {
  sampler : sampler;
  n_chains : int;  (** MH chains (also the pilot count for SNIS) *)
  warmup : int;  (** tuning iterations per chain, discarded *)
  samples : int;  (** retained draws per chain *)
  thin : int;  (** keep every [thin]-th post-warmup draw *)
  seed : int;
  ci_level : float;  (** credible-interval mass, e.g. 0.95 *)
  prior : Model.prior;
  predict : (float * float * float) array;
      (** (time_s, temp_k, vdd_v) points for posterior-predictive
          degradation intervals *)
}

val default_config : config
(** [Mh], 4 chains, 1000 warmup, 1000 samples, thin 1, seed 42, 95 %
    intervals, {!Model.default_prior}, no predictive points. *)

val max_chains : int
val max_thin : int
val max_total_iterations : int
val max_particles : int
val max_predict_points : int
(** The caps {!validate} enforces: 64, 1000, 20,000,000, 5,000,000, 1024. *)

val validate : config -> (unit, string) result
(** Bounds suitable for server-side admission: chains in [1, 64], total
    iterations bounded, thin in [1, 1000], ci_level in (0, 1), positive
    finite predictive points (at most 1024), positive particle counts. *)

val fingerprint : config -> string
(** MD5 hex over every field (floats rendered [%.17g]): configs with
    equal fingerprints produce bitwise-equal posteriors on equal
    datasets. Cache-key component alongside {!Dataset.digest}. *)

val run : ?pool:Parallel.Pool.t -> ?budget:Parallel.Budget.t -> config -> Dataset.t -> Posterior.t
(** Runs the configured sampler. For [Importance], a pilot MH run
    (same chains/warmup config, capped retained draws) first fits the
    Gaussian proposal, inflated 1.5×, that the particles are drawn from.
    @raise Invalid_argument when [validate] rejects the config.
    @raise Parallel.Budget.Deadline_exceeded when the budget expires. *)
