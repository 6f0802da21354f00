let mean xs =
  assert (Array.length xs > 0);
  Numerics.kahan_sum xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  assert (n > 0);
  if n = 1 then 0.0
  else begin
    let m = mean xs in
    let devs = Array.map (fun x -> (x -. m) *. (x -. m)) xs in
    Numerics.kahan_sum devs /. float_of_int (n - 1)
  end

let stddev xs = Float.sqrt (variance xs)

let min_max xs =
  assert (Array.length xs > 0);
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let percentile xs ~p =
  assert (Array.length xs > 0 && p >= 0.0 && p <= 100.0);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs ~p:50.0

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p05 : float;
  p50 : float;
  p95 : float;
}

let summarize xs =
  let min, max = min_max xs in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min;
    max;
    p05 = percentile xs ~p:5.0;
    p50 = median xs;
    p95 = percentile xs ~p:95.0;
  }

let histogram xs ~bins =
  assert (bins >= 1 && Array.length xs > 0);
  let lo, hi = min_max xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. width) in
      let i = Stdlib.max 0 (Stdlib.min (bins - 1) i) in
      counts.(i) <- counts.(i) + 1)
    xs;
  Array.mapi
    (fun i c ->
      let b_lo = lo +. (float_of_int i *. width) in
      (b_lo, b_lo +. width, c))
    counts

(* Abramowitz & Stegun 7.1.26 rational approximation. *)
let erf x =
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let poly =
    t
    *. (0.254829592
       +. (t *. (-0.284496736 +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  sign *. (1.0 -. (poly *. Float.exp (-.x *. x)))

let normal_pdf ~mean ~sigma x =
  let z = (x -. mean) /. sigma in
  Float.exp (-0.5 *. z *. z) /. (sigma *. Float.sqrt (2.0 *. Float.pi))

let normal_cdf ~mean ~sigma x =
  0.5 *. (1.0 +. erf ((x -. mean) /. (sigma *. Float.sqrt 2.0)))

let correlation xs ys =
  let n = Array.length xs in
  assert (n = Array.length ys && n >= 2);
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0.0 || !syy = 0.0 then 0.0 else !sxy /. Float.sqrt (!sxx *. !syy)

let weighted_quantile xs ~weights ~q =
  assert (Array.length xs > 0 && Array.length xs = Array.length weights && q >= 0.0 && q <= 1.0);
  (* Zero-weight samples carry no posterior mass and must not surface as
     quantiles (they otherwise leak in at the extremes). *)
  let idx =
    Array.init (Array.length xs) Fun.id
    |> Array.to_seq
    |> Seq.filter (fun i -> weights.(i) > 0.0)
    |> Array.of_seq
  in
  let n = Array.length idx in
  assert (n > 0);
  Array.sort (fun a b -> compare xs.(a) xs.(b)) idx;
  let total = Numerics.kahan_sum weights in
  assert (total > 0.0);
  (* Midpoint convention: sample i sits at cumulative mass
     (sum of weights before i) + w_i / 2, so equal weights reproduce the
     (n-1)-interpolated percentile. *)
  let target = q *. total in
  let cum = ref 0.0 in
  let result = ref xs.(idx.(n - 1)) in
  (try
     let prev_pos = ref Float.neg_infinity and prev_x = ref xs.(idx.(0)) in
     for k = 0 to n - 1 do
       let w = weights.(idx.(k)) in
       let pos = !cum +. (w /. 2.0) in
       cum := !cum +. w;
       if pos >= target then begin
         (if !prev_pos = Float.neg_infinity || pos = !prev_pos then
            result := xs.(idx.(k))
          else begin
            let frac = (target -. !prev_pos) /. (pos -. !prev_pos) in
            let frac = Float.max 0.0 (Float.min 1.0 frac) in
            result := !prev_x +. (frac *. (xs.(idx.(k)) -. !prev_x))
          end);
         raise Exit
       end;
       prev_pos := pos;
       prev_x := xs.(idx.(k))
     done
   with Exit -> ());
  !result

let hdi xs ~level =
  let n = Array.length xs in
  assert (n > 0 && level > 0.0 && level <= 1.0);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let m = Stdlib.max 1 (int_of_float (Float.ceil (level *. float_of_int n))) in
  let m = Stdlib.min m n in
  let best = ref 0 and best_width = ref Float.infinity in
  for i = 0 to n - m do
    let width = sorted.(i + m - 1) -. sorted.(i) in
    if width < !best_width then begin
      best_width := width;
      best := i
    end
  done;
  (sorted.(!best), sorted.(!best + m - 1))

let autocorrelation xs ~lag =
  let n = Array.length xs in
  assert (n > 0 && lag >= 0);
  if lag = 0 then 1.0
  else if lag >= n then 0.0
  else begin
    let m = mean xs in
    let c0 = ref 0.0 and ck = ref 0.0 in
    for i = 0 to n - 1 do
      let d = xs.(i) -. m in
      c0 := !c0 +. (d *. d)
    done;
    for i = 0 to n - lag - 1 do
      ck := !ck +. ((xs.(i) -. m) *. (xs.(i + lag) -. m))
    done;
    if !c0 = 0.0 then 0.0 else !ck /. !c0
  end

let ess xs =
  let n = Array.length xs in
  assert (n > 0);
  let nf = float_of_int n in
  if n < 4 || variance xs = 0.0 then nf
  else begin
    (* Geyer initial positive sequence: sum rho over adjacent pairs
       Gamma_j = rho_{2j} + rho_{2j+1} while the pair sum stays positive.
       tau = 2 * sum Gamma_j - 1, ESS = n / tau. *)
    let max_lag = Stdlib.min (n - 1) (n / 2) in
    let sum_gamma = ref 0.0 in
    (try
       let j = ref 0 in
       while (2 * !j) + 1 <= max_lag do
         let g =
           autocorrelation xs ~lag:(2 * !j)
           +. autocorrelation xs ~lag:((2 * !j) + 1)
         in
         if g <= 0.0 then raise Exit;
         sum_gamma := !sum_gamma +. g;
         incr j
       done
     with Exit -> ());
    let tau = (2.0 *. !sum_gamma) -. 1.0 in
    let tau = Float.max 1.0 tau in
    Float.max 1.0 (Float.min nf (nf /. tau))
  end
