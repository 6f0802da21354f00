(* Monte-Carlo and leakage kernels over the compiled arena.

   These are the execution backends of [Logic.Signal_prob.monte_carlo],
   [Logic.Activity.monte_carlo] and the MLV leakage evaluations. The
   Monte-Carlo kernels replicate their boxed counterparts' RNG draw
   order exactly (per word block: PI 0 bits 0..63, then PI 1, ...), and
   every per-node result is an integer count — so sums over blocks are
   identical whatever the chunking or domain count, and the frontends'
   final divisions are bit-identical to the boxed paths.

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

(* Total standby leakage of an evaluation already made: sums the LUT
   entry each gate's fanin index in [idxs] selects. [currents] holds,
   per node, the cell leakage LUT row ([||] for primary inputs).
   The sum runs in node order; skipping the primary inputs' 0.0 terms is
   exact ([x +. 0.0 = x] bitwise for the non-negative partial sums
   here), so this matches [Circuit_leakage.standby_leakage]'s fold. *)
let leakage_of_idxs (a : Arena.t) ~currents idxs =
  let acc = ref 0.0 in
  for i = 0 to a.Arena.n_nodes - 1 do
    if a.Arena.op.(i) <> Arena.op_pi then acc := !acc +. (currents.(i) : float array).(idxs.(i))
  done;
  !acc

(* --- Standby leakage, 64 vectors per packed sweep ---

   The vectors ride the lanes of one [Arena.eval_packed] sweep; each
   lane then reads its own gate terms off the packed node words. Lane
   [l]'s fanin index at a gate is the little-endian word of bit [l] of
   each fanin's node word, the index [Arena.eval_scalar] computes for
   that vector, and the lane's sum starts at 0.0 and adds its gate terms
   in node order. So every lane's value is the [leakage_of_idxs] sum of
   its vector, bit for bit. *)

let lanes = 64

(* Per-worker packed node words: lanes 0-31 in [lo], 32-63 in [hi]. *)
type lane_scratch = { lo : int array; hi : int array }

let lane_scratch (a : Arena.t) =
  { lo = Array.make a.Arena.n_nodes 0; hi = Array.make a.Arena.n_nodes 0 }

(* Sets primary input [k] (PI order) of lane [lane] to [b]. Lanes keep
   their bits between sweeps; a sweep sums only the lanes it is told. *)
let[@inline] set_input (a : Arena.t) s ~lane k b =
  let w = if lane < 32 then s.lo else s.hi in
  let id = a.Arena.pis.(k) in
  let bit = 1 lsl (lane land 31) in
  w.(id) <- (if b then w.(id) lor bit else w.(id) land lnot bit)

let load_vector a s ~lane v =
  for k = 0 to Array.length v - 1 do
    set_input a s ~lane k v.(k)
  done

(* Simulates the loaded lanes in one packed sweep and writes the
   standby leakage of lane [l] to [out.(off + l)], for [l < n_lanes].
   Per gate the fanin words are read once per 32-lane half; lane [l] of
   a half sits at bit [l] of its words. Arities 1-3 (most of the
   library) have their own loops. *)
let sweep_leakage (a : Arena.t) ~currents s ~n_lanes out ~off =
  if n_lanes < 0 || n_lanes > lanes || off < 0 || off + n_lanes > Array.length out then
    invalid_arg "Logic.sweep_leakage: lanes out of range";
  Arena.eval_packed a ~lo:s.lo ~hi:s.hi;
  Array.fill out off n_lanes 0.0;
  let fo = a.Arena.fanin_off and fi = a.Arena.fanin and op = a.Arena.op in
  (* [out] indices below stay in [off, off + n_lanes), checked above. *)
  for i = 0 to a.Arena.n_nodes - 1 do
    if op.(i) <> Arena.op_pi then begin
      let row : float array = currents.(i) in
      let b = fo.(i) in
      let k = fo.(i + 1) - b in
      for h = 0 to ((n_lanes + 31) lsr 5) - 1 do
        let words = if h = 0 then s.lo else s.hi in
        let o = off + (h lsl 5) in
        let n = if n_lanes - (h lsl 5) < 32 then n_lanes - (h lsl 5) else 32 in
        if k = 1 then begin
          let w0 = words.(fi.(b)) in
          for sh = 0 to n - 1 do
            let j = o + sh in
            Array.unsafe_set out j (Array.unsafe_get out j +. row.((w0 lsr sh) land 1))
          done
        end
        else if k = 2 then begin
          let w0 = words.(fi.(b)) and w1 = words.(fi.(b + 1)) in
          for sh = 0 to n - 1 do
            let j = o + sh in
            let idx = ((w0 lsr sh) land 1) lor (((w1 lsr sh) land 1) lsl 1) in
            Array.unsafe_set out j (Array.unsafe_get out j +. row.(idx))
          done
        end
        else if k = 3 then begin
          let w0 = words.(fi.(b)) and w1 = words.(fi.(b + 1)) and w2 = words.(fi.(b + 2)) in
          for sh = 0 to n - 1 do
            let j = o + sh in
            let idx =
              ((w0 lsr sh) land 1) lor (((w1 lsr sh) land 1) lsl 1) lor (((w2 lsr sh) land 1) lsl 2)
            in
            Array.unsafe_set out j (Array.unsafe_get out j +. row.(idx))
          done
        end
        else
          for sh = 0 to n - 1 do
            let idx = ref 0 in
            for j = 0 to k - 1 do
              idx := !idx lor (((words.(fi.(b + j)) lsr sh) land 1) lsl j)
            done;
            let j = o + sh in
            Array.unsafe_set out j (Array.unsafe_get out j +. row.(!idx))
          done
      done
    end
  done
