(* Compiled process-variation Monte-Carlo: the per-sample body of
   [Variation.Process_var.run] over the arena, timing constants and NBTI
   shape, with no per-sample allocation beyond chunk-owned scratch.

   Bit-identity with the boxed sampler rests on:
   - streams: one [Pool.split_streams] stream per sample, in sample
     order — the same derivation [Pool.init_rng] performs;
   - draws: n_nodes gaussian offsets in node order per sample (the
     Box-Muller spare cache makes draw order load-bearing);
   - floats: the fresh delay is [scale *. d0] (the boxed
     [gate_scale i *. Cell_delay.delay] with dvth = 0), the aged stage
     delay recomputes the boxed operand order from [Timing]'s constants,
     and [kv] is the actual [Rd_model.kv] — evaluated once per gate per
     sample instead of once per stage, sound because the equivalent
     schedule's T_ref does not depend on the stage's duty pair. *)

let max_at_outputs (a : Arena.t) arrival = arrival.(Timing.critical_output a arrival)

type scratch = {
  offsets : float array;  (* per node: sampled V_th0 offset *)
  scale : float array;  (* per node: (od_nom /. od)^alpha *)
  arr : float array;  (* per node: arrival *)
  st : float array;  (* per flat stage: intra-cell arrival *)
}

let scratch (a : Arena.t) =
  {
    offsets = Array.make a.Arena.n_nodes 0.0;
    scale = Array.make a.Arena.n_nodes 0.0;
    arr = Array.make a.Arena.n_nodes 0.0;
    st = Array.make a.Arena.n_stages 0.0;
  }

(* One sample on [rng]: writes (fresh_delay, aged_delay). *)
let one_sample (tm : Timing.t) (sh : Aging.t) ~params ~sigma_vth sc rng =
  let a = tm.Timing.a in
  let n = a.Arena.n_nodes in
  let tech = tm.Timing.tech in
  let vdd = tm.Timing.vdd in
  let alpha = tm.Timing.alpha in
  let vth_nom = tm.Timing.vt_p in
  let overdrive_nom = vdd -. vth_nom in
  let vth_p = tech.Device.Tech.vth_p in
  for i = 0 to n - 1 do
    sc.offsets.(i) <- Physics.Rng.gaussian rng ~mean:0.0 ~sigma:sigma_vth
  done;
  (* Fresh pass. *)
  for i = 0 to n - 1 do
    if a.Arena.op.(i) = Arena.op_pi then sc.arr.(i) <- 0.0
    else begin
      let od = vdd -. (vth_nom +. sc.offsets.(i)) in
      let s = Float.pow (overdrive_nom /. od) alpha in
      sc.scale.(i) <- s;
      sc.arr.(i) <- Timing.fanin_arrival a sc.arr i +. (s *. tm.Timing.d0.(i))
    end
  done;
  let fresh_delay = max_at_outputs a sc.arr in
  (* Aged pass: per-gate kv at the sample's vth0, shape-expanded dvth
     per stage, stage delays from the compiled constants. The stage
     loop is [Timing.aged_delay_into]'s with the sample's shift computed
     in place; it is written out here because a call into another
     module returns its float boxed (the dev profile compiles with
     -opaque), one allocation per stage per sample. *)
  for i = 0 to n - 1 do
    if a.Arena.op.(i) = Arena.op_pi then sc.arr.(i) <- 0.0
    else begin
      let kv =
        Nbti.Rd_model.kv params tech ~vgs:vdd ~vth0:(vth_p +. sc.offsets.(i))
          ~temp_k:sh.Aging.kv_t_ref
      in
      let b = a.Arena.stage_off.(i) in
      let n_st = a.Arena.stage_off.(i + 1) - b in
      for s = b to b + n_st - 1 do
        let dvth = Aging.sample_dvth sh s kv in
        let rise =
          tm.Timing.lv.(s)
          /. Timing.drive tm.Timing.kw_up.(s) (vdd -. (tm.Timing.vt_p +. dvth)) alpha
        in
        let input =
          let acc = ref 0.0 in
          for d = a.Arena.dep_off.(s) to a.Arena.dep_off.(s + 1) - 1 do
            acc := Float.max !acc sc.st.(a.Arena.deps.(d))
          done;
          !acc
        in
        sc.st.(s) <- input +. Float.max rise tm.Timing.fall0.(s)
      done;
      sc.arr.(i) <- Timing.fanin_arrival a sc.arr i +. (sc.scale.(i) *. sc.st.(b + n_st - 1))
    end
  done;
  (fresh_delay, max_at_outputs a sc.arr)

(* All [n_samples] samples in parallel; sample [i]'s delays land in
   [out_fresh.(i)]/[out_aged.(i)]. Chunked over the pool with one
   scratch per chunk; results are indexed writes, so chunking and domain
   count cannot affect them. *)
let run_samples pool (tm : Timing.t) (sh : Aging.t) ~params ~sigma_vth ~rng ~n_samples
    ~out_fresh ~out_aged =
  let rngs = Parallel.Pool.split_streams rng n_samples in
  Parallel.Pool.iter_ranges pool n_samples (fun lo hi ->
      let sc = scratch tm.Timing.a in
      for i = lo to hi - 1 do
        let fresh, aged = one_sample tm sh ~params ~sigma_vth sc rngs.(i) in
        out_fresh.(i) <- fresh;
        out_aged.(i) <- aged
      done)
