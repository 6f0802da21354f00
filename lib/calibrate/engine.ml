type sampler = Mh | Importance of { particles : int }

type config = {
  sampler : sampler;
  n_chains : int;
  warmup : int;
  samples : int;
  thin : int;
  seed : int;
  ci_level : float;
  prior : Model.prior;
  predict : (float * float * float) array;
}

let default_config =
  {
    sampler = Mh;
    n_chains = 4;
    warmup = 1000;
    samples = 1000;
    thin = 1;
    seed = 42;
    ci_level = 0.95;
    prior = Model.default_prior;
    predict = [||];
  }

let max_chains = 64
let max_thin = 1000
let max_total_iterations = 20_000_000
let max_particles = 5_000_000
let max_predict_points = 1024

let validate c =
  let err fmt = Format.kasprintf Result.error fmt in
  if c.n_chains < 1 || c.n_chains > max_chains then
    err "n_chains must be in [1, %d] (got %d)" max_chains c.n_chains
  else if c.warmup < 0 then err "warmup must be >= 0 (got %d)" c.warmup
  else if c.samples < 1 then err "samples must be >= 1 (got %d)" c.samples
  else if c.thin < 1 || c.thin > max_thin then
    err "thin must be in [1, %d] (got %d)" max_thin c.thin
  else if c.n_chains * (c.warmup + (c.samples * c.thin)) > max_total_iterations
  then
    err "total iterations %d exceed the %d cap"
      (c.n_chains * (c.warmup + (c.samples * c.thin)))
      max_total_iterations
  else if not (c.ci_level > 0.0 && c.ci_level < 1.0) then
    err "ci_level must be in (0, 1) (got %g)" c.ci_level
  else if Array.length c.predict > max_predict_points then
    err "at most %d predictive points (got %d)" max_predict_points
      (Array.length c.predict)
  else if
    Array.exists
      (fun (t, temp, v) ->
        not
          (Float.is_finite t && t > 0.0 && Float.is_finite temp && temp > 0.0
         && Float.is_finite v && v > 0.0))
      c.predict
  then err "predictive points must have positive finite (time_s, temp_k, vdd_v)"
  else
    match c.sampler with
    | Mh -> Ok ()
    | Importance { particles } ->
        if particles < 1 || particles > max_particles then
          err "particles must be in [1, %d] (got %d)" max_particles particles
        else Ok ()

let fingerprint c =
  let buf = Buffer.create 256 in
  let add fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  (match c.sampler with
  | Mh -> add "mh"
  | Importance { particles } -> add "importance:%d" particles);
  add "|chains=%d|warmup=%d|samples=%d|thin=%d|seed=%d|level=%.17g" c.n_chains
    c.warmup c.samples c.thin c.seed c.ci_level;
  let t a = Model.to_array a in
  Array.iter (fun x -> add "|%.17g" x) (t c.prior.Model.mu);
  Array.iter (fun x -> add "|%.17g" x) (t c.prior.Model.sd);
  Array.iter
    (fun (time_s, temp_k, vdd_v) -> add "|p=%.17g,%.17g,%.17g" time_s temp_k vdd_v)
    c.predict;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pilot_samples c = Stdlib.min c.samples 200

let run ?pool ?(budget = Parallel.Budget.unlimited) c data =
  (match validate c with
  | Ok () -> ()
  | Error m -> invalid_arg ("Calibrate.Engine.run: " ^ m));
  let sampler_name =
    match c.sampler with Mh -> "mh" | Importance _ -> "importance"
  in
  Obs.Trace.with_span ~cat:"calibrate"
    ~args:
      [
        ("sampler", Obs.Fields.Str sampler_name);
        ("points", Obs.Fields.Int (Dataset.length data));
        ("chains", Obs.Fields.Int c.n_chains);
      ]
    "calibrate.run"
  @@ fun () ->
  let log_post = Model.log_post c.prior data in
  let init_mu = Model.to_array c.prior.Model.mu in
  let init_sd = Model.to_array c.prior.Model.sd in
  let rng = Physics.Rng.create ~seed:c.seed in
  match c.sampler with
  | Mh ->
      let chains =
        Mh.run ?pool ~budget ~log_post ~init_mu ~init_sd ~n_chains:c.n_chains
          ~warmup:c.warmup ~samples:c.samples ~thin:c.thin ~rng ()
      in
      Posterior.of_chains ~ci_level:c.ci_level ~predict:c.predict chains
  | Importance { particles } ->
      (* Pilot MH fits a Gaussian proposal in the posterior's
         neighbourhood; prior-proposal SNIS would collapse its weight ESS
         on any informative dataset. *)
      let pilot =
        Mh.run ?pool ~budget ~log_post ~init_mu ~init_sd ~n_chains:c.n_chains
          ~warmup:c.warmup ~samples:(pilot_samples c) ~thin:c.thin ~rng ()
      in
      let summary =
        Posterior.of_chains ~ci_level:c.ci_level ~predict:[||] pilot
      in
      let proposal_mu =
        Array.map (fun (p : Posterior.param_summary) -> p.Posterior.mean)
          summary.Posterior.params
      in
      let proposal_sd =
        Array.map
          (fun (p : Posterior.param_summary) ->
            Float.max (1.5 *. p.Posterior.sd) 1e-6)
          summary.Posterior.params
      in
      let is =
        Importance.run ?pool ~budget ~log_post ~proposal_mu ~proposal_sd
          ~particles ~rng ()
      in
      Posterior.of_importance ~ci_level:c.ci_level ~predict:c.predict is
