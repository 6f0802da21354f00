(* Monte-Carlo logic kernels over the compiled arena.

   These are the execution backends of [Logic.Signal_prob.monte_carlo],
   [Logic.Activity.monte_carlo] and the MLV leakage evaluations. Each
   replicates its boxed counterpart's RNG draw order exactly (per word
   block: PI 0 bits 0..63, then PI 1, ...), and every per-node result is
   an integer count — so sums over blocks are identical whatever the
   chunking or domain count, and the frontends' final divisions are
   bit-identical to the boxed paths.

   Parallel accumulation: each chunk owns scratch simulator state and a
   private accumulator row, merged into the shared totals under a mutex.
   Integer addition is commutative and associative, so merge order (the
   only scheduling-dependent thing here) cannot change the totals. *)

(* Draw one 64-lane packed word for probability [p]: bit order 0..63
   matches the boxed Int64 draw loop, split across the lo/hi words. *)
let draw_word rng ~p lo hi i =
  let l = ref 0 in
  for bit = 0 to 31 do
    if Physics.Rng.bernoulli rng ~p then l := !l lor (1 lsl bit)
  done;
  let h = ref 0 in
  for bit = 0 to 31 do
    if Physics.Rng.bernoulli rng ~p then h := !h lor (1 lsl bit)
  done;
  lo.(i) <- !l;
  hi.(i) <- !h

let draw_inputs (a : Arena.t) rng ~input_sp lo hi =
  Array.iteri (fun k id -> draw_word rng ~p:input_sp.(k) lo hi id) a.Arena.pis

(* Per-node ones counts over [n_words] 64-vector blocks (block [b] on
   stream [rngs.(b)]), accumulated into [counts]. *)
let sp_counts pool ?budget (a : Arena.t) ~rngs ~input_sp ~counts =
  let n_words = Array.length rngs in
  let n = a.Arena.n_nodes in
  let merge_m = Mutex.create () in
  Parallel.Pool.iter_ranges pool ?budget n_words (fun b0 b1 ->
      let lo = Array.make n 0 and hi = Array.make n 0 in
      let acc = Array.make n 0 in
      for b = b0 to b1 - 1 do
        draw_inputs a rngs.(b) ~input_sp lo hi;
        Arena.eval_packed a ~lo ~hi;
        for i = 0 to n - 1 do
          acc.(i) <- acc.(i) + Arena.popcount32 lo.(i) + Arena.popcount32 hi.(i)
        done
      done;
      Mutex.lock merge_m;
      for i = 0 to n - 1 do
        counts.(i) <- counts.(i) + acc.(i)
      done;
      Mutex.unlock merge_m)

(* Per-node toggle counts over [n_words] blocks of 64 vector pairs:
   first vector of every pair drawn PI by PI, then the second, then two
   packed sweeps and an XOR popcount — the boxed pair order exactly. *)
let activity_counts pool (a : Arena.t) ~rngs ~input_sp ~toggles =
  let n_words = Array.length rngs in
  let n = a.Arena.n_nodes in
  let merge_m = Mutex.create () in
  Parallel.Pool.iter_ranges pool n_words (fun b0 b1 ->
      let lo1 = Array.make n 0 and hi1 = Array.make n 0 in
      let lo2 = Array.make n 0 and hi2 = Array.make n 0 in
      let acc = Array.make n 0 in
      for b = b0 to b1 - 1 do
        let rng = rngs.(b) in
        draw_inputs a rng ~input_sp lo1 hi1;
        draw_inputs a rng ~input_sp lo2 hi2;
        Arena.eval_packed a ~lo:lo1 ~hi:hi1;
        Arena.eval_packed a ~lo:lo2 ~hi:hi2;
        for i = 0 to n - 1 do
          acc.(i) <-
            acc.(i)
            + Arena.popcount32 (lo1.(i) lxor lo2.(i))
            + Arena.popcount32 (hi1.(i) lxor hi2.(i))
        done
      done;
      Mutex.lock merge_m;
      for i = 0 to n - 1 do
        toggles.(i) <- toggles.(i) + acc.(i)
      done;
      Mutex.unlock merge_m)

(* --- Standby leakage --- *)

(* Reusable per-worker state for repeated single-vector evaluations. *)
type leak_scratch = { vals : int array; idxs : int array }

let leak_scratch (a : Arena.t) =
  { vals = Array.make a.Arena.n_nodes 0; idxs = Array.make a.Arena.n_nodes 0 }

(* Total standby leakage for one input vector; [leakage_of_idxs] sums
   the per-gate fanin indices of an evaluation already made. [currents]
   holds, per node, the cell leakage LUT row ([||] for primary inputs).
   The sum runs in node order; skipping the primary inputs' 0.0 terms is
   exact ([x +. 0.0 = x] bitwise for the non-negative partial sums
   here), so this matches [Circuit_leakage.standby_leakage]'s fold. *)
let leakage_of_idxs (a : Arena.t) ~currents idxs =
  let acc = ref 0.0 in
  for i = 0 to a.Arena.n_nodes - 1 do
    if a.Arena.op.(i) <> Arena.op_pi then acc := !acc +. (currents.(i) : float array).(idxs.(i))
  done;
  !acc

let standby_leakage (a : Arena.t) ~currents scratch ~vector =
  Arena.eval_bool a ~inputs:vector ~vals:scratch.vals ~idxs:scratch.idxs;
  leakage_of_idxs a ~currents scratch.idxs

(* Per-node LUT rows for [standby_leakage], extracted once per tables
   value by the caller (the arena itself stays leakage-agnostic). *)
let currents_of (a : Arena.t) lut_row =
  Array.mapi
    (fun i _ -> if a.Arena.op.(i) = Arena.op_pi then [||] else lut_row i)
    a.Arena.op
