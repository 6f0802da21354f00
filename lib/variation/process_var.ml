type config = {
  aging : Aging.Circuit_aging.config;
  sigma_vth : float;
  n_samples : int;
}

let default_config ?(sigma_vth = 0.015) ?(n_samples = 500) aging =
  if sigma_vth < 0.0 then invalid_arg "Process_var: negative sigma";
  if n_samples < 2 then invalid_arg "Process_var: need at least 2 samples";
  { aging; sigma_vth; n_samples }

type sample = { fresh_delay : float; aged_delay : float }

type study = {
  samples : sample array;
  fresh : Physics.Stats.summary;
  aged : Physics.Stats.summary;
  fresh_3sigma : float * float;
  aged_3sigma : float * float;
}

(* On the compiled arena: one stream per sample in sample order, the
   boxed gaussian draw order and float association per sample, so the
   study is bit-identical to the boxed reference the tests keep (a boxed
   R-D evaluation per gate stage and two boxed STA passes per sample) at
   any domain count. The duty table, equivalent schedules and timing
   constants are hoisted out of the sample loop (the NBTI shape and
   compiled timing are memoized across calls). *)
let run ?pool config t ~node_sp ~standby ~rng =
  let aging = config.aging in
  let tech = aging.Aging.Circuit_aging.tech in
  let temp_k = aging.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
  let a = Compiled.Arena.get t in
  let tm = Compiled.Timing.get a ~tech ~temp_k () in
  let sh = Aging.Circuit_aging.pmos_shape aging t a ~node_sp ~standby in
  let p = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let n = config.n_samples in
  let out_fresh = Array.make n 0.0 and out_aged = Array.make n 0.0 in
  Compiled.Variation.run_samples p tm sh ~params:aging.Aging.Circuit_aging.params
    ~sigma_vth:config.sigma_vth ~rng ~n_samples:n ~out_fresh ~out_aged;
  let samples =
    Array.init n (fun i -> { fresh_delay = out_fresh.(i); aged_delay = out_aged.(i) })
  in
  let fresh = Physics.Stats.summarize (Array.map (fun s -> s.fresh_delay) samples) in
  let aged = Physics.Stats.summarize (Array.map (fun s -> s.aged_delay) samples) in
  let band (s : Physics.Stats.summary) =
    (s.Physics.Stats.mean -. (3.0 *. s.Physics.Stats.stddev),
     s.Physics.Stats.mean +. (3.0 *. s.Physics.Stats.stddev))
  in
  { samples; fresh; aged; fresh_3sigma = band fresh; aged_3sigma = band aged }

let crossover study =
  let _, fresh_hi = study.fresh_3sigma in
  let aged_lo, _ = study.aged_3sigma in
  aged_lo > fresh_hi
