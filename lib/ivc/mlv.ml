type candidate = { vector : bool array; leakage : float }

let evaluate tables t vector =
  { vector; leakage = Leakage.Circuit_leakage.standby_leakage tables t ~vector }

(* Vectors packed to a little-endian bit string: an O(n/8) immutable key
   (flat allocation, monomorphic compare) for dedup hashing and for the
   deterministic tie-break on the vector itself. All keys of one search
   share the vector length, so fixed-width packing is collision-free. *)
let vector_key v =
  let n = Array.length v in
  let b = Bytes.create ((n + 7) lsr 3) in
  let byte = ref 0 in
  for i = 0 to n - 1 do
    byte := !byte lor (Bool.to_int (Array.unsafe_get v i) lsl (i land 7));
    if i land 7 = 7 || i = n - 1 then begin
      Bytes.unsafe_set b (i lsr 3) (Char.unsafe_chr !byte);
      byte := 0
    end
  done;
  Bytes.unsafe_to_string b

let pool_of = function Some p -> p | None -> Parallel.Pool.default ()

(* --- Scoring: every search reads leakage from the packed lane kernel ---

   [Compiled.Logic.sweep_leakage] scores up to 64 vectors per packed
   sweep, each bit-identical to [evaluate]. A scorer owns one search's
   arena, LUT rows and a free list of lane scratches, so each
   concurrently running chunk takes one and no sweep allocates. *)

let lanes = Compiled.Logic.lanes

type scorer = {
  a : Compiled.Arena.t;
  currents : float array array;
  m : Mutex.t;
  mutable free : Compiled.Logic.lane_scratch list;
}

let scorer tables t =
  {
    a = Compiled.Arena.get t;
    currents = Leakage.Circuit_leakage.node_currents tables t;
    m = Mutex.create ();
    free = [];
  }

let take sc =
  Mutex.lock sc.m;
  let s =
    match sc.free with
    | s :: rest ->
      sc.free <- rest;
      s
    | [] -> Compiled.Logic.lane_scratch sc.a
  in
  Mutex.unlock sc.m;
  s

let give sc s =
  Mutex.lock sc.m;
  sc.free <- s :: sc.free;
  Mutex.unlock sc.m

(* Leakage of [vs.(off + l)] into [out.(off + l)], for [l < n_lanes]. *)
let score_sweep sc s vs ~off ~n_lanes out =
  for l = 0 to n_lanes - 1 do
    Compiled.Logic.load_vector sc.a s ~lane:l vs.(off + l)
  done;
  Compiled.Logic.sweep_leakage sc.a ~currents:sc.currents s ~n_lanes out ~off

(* Leakage of [vs.(i)] into [out.(i)] for [i < n]; the 64-vector
   sweeps fan out over [par], one per chunk. Each lane's value depends
   only on its own vector, so the result is independent of the domain
   count. *)
let score sc par ~budget vs n out =
  Parallel.Pool.iter_ranges par ~chunk:1 ~budget ((n + lanes - 1) / lanes) (fun g0 g1 ->
      let s = take sc in
      for g = g0 to g1 - 1 do
        let off = g * lanes in
        score_sweep sc s vs ~off ~n_lanes:(min lanes (n - off)) out
      done;
      give sc s)

let exhaustive ?par tables t =
  let n = Circuit.Netlist.n_primary_inputs t in
  if n > 20 then invalid_arg "Mlv.exhaustive: too many primary inputs";
  let total = 1 lsl n in
  (* Fixed 4096-index blocks: the block partition (and so every float
     comparison sequence) depends only on the input count, never on the
     domain count. Ties break on the lower index — a total order on the
     vector, not on arrival. *)
  let block = 4096 in
  let n_blocks = (total + block - 1) / block in
  let sc = scorer tables t in
  let best_in_block b =
    let lo = b * block in
    let hi = min total (lo + block) in
    let s = take sc in
    let out = Array.make lanes 0.0 in
    let best_idx = ref lo and best = ref 0.0 in
    (* 64 consecutive indices per sweep, scanned in index order. *)
    let base = ref lo in
    while !base < hi do
      let n_lanes = min lanes (hi - !base) in
      for l = 0 to n_lanes - 1 do
        let idx = !base + l in
        for k = 0 to n - 1 do
          Compiled.Logic.set_input sc.a s ~lane:l k ((idx lsr k) land 1 = 1)
        done
      done;
      Compiled.Logic.sweep_leakage sc.a ~currents:sc.currents s ~n_lanes out ~off:0;
      for l = 0 to n_lanes - 1 do
        let idx = !base + l in
        if idx = lo || out.(l) < !best then begin
          best := out.(l);
          best_idx := idx
        end
      done;
      base := !base + n_lanes
    done;
    give sc s;
    (!best_idx, !best)
  in
  let p = pool_of par in
  Parallel.Pool.map_reduce p ~map:best_in_block
    ~reduce:(fun acc (idx, leakage) ->
      (* Blocks fold in index order, so keeping the incumbent on equal
         leakage is exactly lowest-index-wins. *)
      match acc with
      | Some (_, best) when best <= leakage -> acc
      | _ -> Some (idx, leakage))
    ~init:None
    (Array.init n_blocks (fun b -> b))
  |> function
  | Some (idx, leakage) -> { vector = Array.init n (fun i -> (idx lsr i) land 1 = 1); leakage }
  | None -> assert false

let random_vector rng n = Array.init n (fun _ -> Physics.Rng.bool rng)

let random_search ?(budget = Parallel.Budget.unlimited) tables t ~rng ~n =
  assert (n >= 1);
  let n_pi = Circuit.Netlist.n_primary_inputs t in
  let sc = scorer tables t in
  let s = take sc in
  let batch = Array.make (min n lanes) [||] and out = Array.make lanes 0.0 in
  let best = ref None and drawn = ref 0 and expired = ref false in
  while (not !expired) && !drawn < n do
    (* Deadline polled before every draw but the first, so an expired
       budget returns the best-so-far without perturbing the stream an
       unbounded run would consume. *)
    let m = ref 0 in
    while (not !expired) && !m < lanes && !drawn < n do
      if !drawn > 0 && Parallel.Budget.expired budget then expired := true
      else begin
        batch.(!m) <- random_vector rng n_pi;
        incr m;
        incr drawn
      end
    done;
    score_sweep sc s batch ~off:0 ~n_lanes:!m out;
    (* Draw order: the first-drawn of equal leakages wins. *)
    for l = 0 to !m - 1 do
      match !best with
      | Some c when not (out.(l) < c.leakage) -> ()
      | _ -> best := Some { vector = batch.(l); leakage = out.(l) }
    done
  done;
  match !best with Some c -> c | None -> assert false

type search_stats = { rounds : int; evaluations : int; converged : bool }

(* The search's memo entry for one distinct vector: its leakage (nan
   until the round's sweep scores it) and the last round it joined the
   candidates, so each vector enters a round's candidates at most once. *)
type slot = { mutable leak : float; mutable round : int }

module Memo = Hashtbl.Make (String)

(* A candidate with its packed vector, computed once per draw. A vector
   drawn into a round buffer is [borrowed] until it joins the MLV set,
   which copies it out. *)
type cand = { vec : bool array; key : string; slot : slot; borrowed : bool }

let own c = if c.borrowed then { c with vec = Array.copy c.vec; borrowed = false } else c

(* Sorted by leakage, equal leakages by the packed vector: a total order
   on distinct vectors, so the set is a pure function of the candidates,
   whatever order they arrive in. *)
let compare_cands a b =
  match Float.compare a.slot.leak b.slot.leak with 0 -> String.compare a.key b.key | c -> c

let probability_based ?par ?(budget = Parallel.Budget.unlimited) tables t ~rng ?(pool = 64)
    ?(tolerance = 0.04) ?(max_rounds = 50) ?(max_set = 16) () =
  if pool < 2 then invalid_arg "Mlv.probability_based: pool must be >= 2";
  if not (tolerance >= 0.0) then invalid_arg "Mlv.probability_based: tolerance must be >= 0";
  let n_pi = Circuit.Netlist.n_primary_inputs t in
  let p = pool_of par in
  let sc = scorer tables t in
  let evaluations = ref 0 in
  (* The search's memo: packed vector -> slot. Refinement rounds mostly
     redraw vectors already scored, so only a round's unseen vectors (the
     first draw of each) go to the kernel. A vector's leakage is a pure
     function of the vector, so answering a repeat from the memo returns
     the bits a rescoring would. *)
  let memo : slot Memo.t = Memo.create 1024 in
  let bufs = Array.init pool (fun _ -> Array.make n_pi false) in
  let unseen = Array.make pool [||] and unseen_slots = Array.make pool { leak = 0.0; round = 0 } in
  let scores = Array.make pool 0.0 in
  (* Round [r] of the search: [pool] vectors drawn from [rng]
     sequentially (vector 0 first) on the calling domain; only the sweeps
     fan out. The RNG stream and therefore the whole search are
     identical for any domain count. The budget is checked once per round
     here and per chunk inside the pool, so a bounded search aborts
     between sweeps. [evaluations] counts draws, repeats included.
     Returns [set] plus the round's vectors not already in it, each
     once: the distinct candidates the set is chosen from. *)
  let round r set draw =
    Parallel.Budget.check budget;
    evaluations := !evaluations + pool;
    List.iter (fun c -> c.slot.round <- r) set;
    let n_new = ref 0 and cands = ref set in
    for i = 0 to pool - 1 do
      let v = bufs.(i) in
      draw v;
      let key = vector_key v in
      let slot =
        match Memo.find memo key with
        | slot -> slot
        | exception Not_found ->
          let slot = { leak = Float.nan; round = -1 } in
          Memo.add memo key slot;
          unseen.(!n_new) <- v;
          unseen_slots.(!n_new) <- slot;
          incr n_new;
          slot
      in
      if slot.round <> r then begin
        slot.round <- r;
        cands := { vec = v; key; slot; borrowed = true } :: !cands
      end
    done;
    score sc p ~budget unseen !n_new scores;
    for j = 0 to !n_new - 1 do
      unseen_slots.(j).leak <- scores.(j)
    done;
    !cands
  in
  (* Line 1: the MLV set keeps vectors within [tolerance] of the set min. *)
  let mlv_set cands =
    match List.sort compare_cands cands with
    | [] -> assert false
    | best :: _ as sorted ->
      let limit = best.slot.leak *. (1.0 +. tolerance) in
      let in_band = List.filter (fun c -> c.slot.leak <= limit) sorted in
      List.map own (List.filteri (fun i _ -> i < max_set) in_band)
  in
  (* Line 2: per-input probability of 1 across the MLV set. *)
  let probs = Array.make n_pi 0.0 and ones = Array.make n_pi 0 in
  let probabilities set =
    Array.fill ones 0 n_pi 0;
    List.iter
      (fun c ->
        for i = 0 to n_pi - 1 do
          if c.vec.(i) then ones.(i) <- ones.(i) + 1
        done)
      set;
    let n_set = float_of_int (List.length set) in
    for i = 0 to n_pi - 1 do
      probs.(i) <- float_of_int ones.(i) /. n_set
    done
  in
  let converged () =
    let all = ref true in
    for i = 0 to n_pi - 1 do
      if not (probs.(i) <= 0.02 || probs.(i) >= 0.98) then all := false
    done;
    !all
  in
  let rec loop set rounds =
    probabilities set;
    if converged () || rounds >= max_rounds then (set, rounds, converged ())
    else begin
      (* Lines 3-4: sample new vectors from the probabilities, fold them
         into the set. *)
      let r = rounds + 1 in
      loop (mlv_set (round r set (fun v -> Physics.Rng.bernoulli_into rng ~p:probs v))) r
    end
  in
  (* Line 0: N random vectors. *)
  let initial =
    round 0 [] (fun v ->
        for i = 0 to n_pi - 1 do
          v.(i) <- Physics.Rng.bool rng
        done)
  in
  let set, rounds, converged = loop (mlv_set initial) 0 in
  ( List.map (fun c -> { vector = c.vec; leakage = c.slot.leak }) set,
    { rounds; evaluations = !evaluations; converged } )
