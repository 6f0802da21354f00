(* Unit and property tests for the physics substrate: constants, units,
   numerics, statistics and the deterministic RNG. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-9) msg expected actual = Alcotest.(check (float eps)) msg expected actual

(* --- Const / Units --- *)

let test_thermal_voltage () =
  check_close ~eps:1e-4 "vT at 300K" 0.02585 (Physics.Const.thermal_voltage ~temp_k:300.0);
  Alcotest.(check bool)
    "vT grows with T" true
    (Physics.Const.thermal_voltage ~temp_k:400.0 > Physics.Const.thermal_voltage ~temp_k:300.0)

let test_eps () =
  check_close ~eps:1e-13 "SiO2 permittivity" (3.9 *. 8.8541878128e-12) Physics.Const.eps_sio2

let test_temperature_conversions () =
  check_float "0C" 273.15 (Physics.Units.kelvin_of_celsius 0.0);
  check_float "roundtrip" 57.0 (Physics.Units.celsius_of_kelvin (Physics.Units.kelvin_of_celsius 57.0))

let test_time_units () =
  check_float "hour" 3600.0 Physics.Units.hour;
  check_float "year" (365.25 *. 86400.0) Physics.Units.year;
  Alcotest.(check bool) "10y approx 3e8s" true (Float.abs (Physics.Units.years 10.0 -. 3.156e8) < 1e6)

let test_si_string () =
  Alcotest.(check string) "nA" "3.200 nA" (Physics.Units.si_string ~unit:"A" 3.2e-9);
  Alcotest.(check string) "zero" "0 A" (Physics.Units.si_string ~unit:"A" 0.0);
  Alcotest.(check string) "negative" "-1.500 mV" (Physics.Units.si_string ~unit:"V" (-1.5e-3));
  Alcotest.(check string) "unitless" "2.000 k" (Physics.Units.si_string 2000.0)

let test_pp_percent () =
  Alcotest.(check string) "percent" "4.32 %" (Format.asprintf "%a" Physics.Units.pp_percent 0.0432)

(* --- Numerics --- *)

let test_bisect () =
  let root = Physics.Numerics.bisect ~f:(fun x -> (x *. x) -. 2.0) 0.0 2.0 in
  check_close ~eps:1e-9 "sqrt 2" (Float.sqrt 2.0) root

let test_bisect_endpoint_roots () =
  check_float "root at lo" 1.0 (Physics.Numerics.bisect ~f:(fun x -> x -. 1.0) 1.0 3.0);
  check_float "root at hi" 3.0 (Physics.Numerics.bisect ~f:(fun x -> x -. 3.0) 1.0 3.0)

let test_bisect_no_bracket () =
  Alcotest.check_raises "same sign raises"
    (Physics.Numerics.No_bracket "bisect: f(lo) and f(hi) have the same sign") (fun () ->
      ignore (Physics.Numerics.bisect ~f:(fun x -> (x *. x) +. 1.0) 0.0 1.0))

let test_brent () =
  let root = Physics.Numerics.brent ~f:(fun x -> Float.exp x -. 5.0) 0.0 3.0 in
  check_close ~eps:1e-9 "ln 5" (Float.log 5.0) root

let test_brent_hard () =
  (* A flat-then-steep function typical of subthreshold currents. *)
  let f x = Float.exp (20.0 *. (x -. 0.8)) -. 1e-3 in
  let root = Physics.Numerics.brent ~f 0.0 1.0 in
  check_close ~eps:1e-7 "exponential root" (0.8 +. (Float.log 1e-3 /. 20.0)) root

let test_fixpoint () =
  (* x = cos x has the Dottie fixed point. *)
  let x = Physics.Numerics.fixpoint ~f:Float.cos 1.0 in
  check_close ~eps:1e-8 "dottie" 0.7390851332151607 x

let test_interp_linear () =
  let xs = [| 0.0; 1.0; 2.0 |] and ys = [| 0.0; 10.0; 40.0 |] in
  check_float "midpoint" 5.0 (Physics.Numerics.interp_linear ~xs ~ys 0.5);
  check_float "second segment" 25.0 (Physics.Numerics.interp_linear ~xs ~ys 1.5);
  check_float "clamp low" 0.0 (Physics.Numerics.interp_linear ~xs ~ys (-1.0));
  check_float "clamp high" 40.0 (Physics.Numerics.interp_linear ~xs ~ys 5.0);
  check_float "exact knot" 10.0 (Physics.Numerics.interp_linear ~xs ~ys 1.0)

let test_integrate () =
  let v = Physics.Numerics.integrate_trapezoid ~f:(fun x -> x *. x) ~a:0.0 ~b:1.0 ~n:1000 in
  check_close ~eps:1e-5 "x^2 over [0,1]" (1.0 /. 3.0) v

let test_kahan () =
  let xs = Array.make 10000 0.1 in
  check_close ~eps:1e-10 "sum of 0.1s" 1000.0 (Physics.Numerics.kahan_sum xs)

let test_linspace_logspace () =
  let l = Physics.Numerics.linspace ~lo:0.0 ~hi:1.0 ~n:5 in
  Alcotest.(check int) "linspace n" 5 (Array.length l);
  check_float "linspace endpoint" 1.0 l.(4);
  check_float "linspace step" 0.25 l.(1);
  let g = Physics.Numerics.logspace ~lo:1.0 ~hi:100.0 ~n:3 in
  check_close ~eps:1e-9 "logspace mid" 10.0 g.(1)

let test_close () =
  Alcotest.(check bool) "close rtol" true (Physics.Numerics.close 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "not close" false (Physics.Numerics.close 1.0 1.1);
  Alcotest.(check bool) "atol" true (Physics.Numerics.close ~atol:0.2 1.0 1.1)

(* --- Stats --- *)

let test_mean_var () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Physics.Stats.mean xs);
  check_close ~eps:1e-9 "variance" 4.571428571428571 (Physics.Stats.variance xs);
  check_float "single-element variance" 0.0 (Physics.Stats.variance [| 3.0 |])

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Physics.Stats.median xs);
  check_float "p0" 1.0 (Physics.Stats.percentile xs ~p:0.0);
  check_float "p100" 5.0 (Physics.Stats.percentile xs ~p:100.0);
  check_float "p25 interpolated" 2.0 (Physics.Stats.percentile xs ~p:25.0)

let test_min_max () =
  let lo, hi = Physics.Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_histogram () =
  let h = Physics.Stats.histogram [| 0.0; 0.1; 0.9; 1.0 |] ~bins:2 in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "first bin" 2 c0;
  Alcotest.(check int) "last bin includes max" 2 c1

let test_erf_cdf () =
  check_close ~eps:1e-6 "erf 0" 0.0 (Physics.Stats.erf 0.0);
  check_close ~eps:1e-6 "erf odd" (-.Physics.Stats.erf 1.0) (Physics.Stats.erf (-1.0));
  check_close ~eps:1e-6 "erf 1" 0.8427008 (Physics.Stats.erf 1.0);
  check_close ~eps:1e-6 "cdf at mean" 0.5 (Physics.Stats.normal_cdf ~mean:2.0 ~sigma:3.0 2.0);
  check_close ~eps:1e-4 "cdf +1 sigma" 0.8413 (Physics.Stats.normal_cdf ~mean:0.0 ~sigma:1.0 1.0)

let test_normal_pdf () =
  check_close ~eps:1e-9 "pdf peak" (1.0 /. Float.sqrt (2.0 *. Float.pi))
    (Physics.Stats.normal_pdf ~mean:0.0 ~sigma:1.0 0.0)

let test_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close ~eps:1e-9 "self correlation" 1.0 (Physics.Stats.correlation xs xs);
  let ys = Array.map (fun x -> -.x) xs in
  check_close ~eps:1e-9 "anticorrelation" (-1.0) (Physics.Stats.correlation xs ys);
  check_float "constant gives 0" 0.0 (Physics.Stats.correlation xs [| 1.0; 1.0; 1.0; 1.0 |])

let test_summary () =
  let s = Physics.Stats.summarize [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "n" 3 s.Physics.Stats.n;
  check_float "mean" 2.0 s.Physics.Stats.mean;
  check_float "p50" 2.0 s.Physics.Stats.p50

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Physics.Rng.create ~seed:42 and b = Physics.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Physics.Rng.int64 a) (Physics.Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Physics.Rng.create ~seed:1 and b = Physics.Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true (Physics.Rng.int64 a <> Physics.Rng.int64 b)

let test_rng_split () =
  let a = Physics.Rng.create ~seed:5 in
  let c = Physics.Rng.split a in
  Alcotest.(check bool) "split independent" true (Physics.Rng.int64 a <> Physics.Rng.int64 c)

let test_rng_copy () =
  let a = Physics.Rng.create ~seed:9 in
  ignore (Physics.Rng.int64 a);
  let b = Physics.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Physics.Rng.int64 a) (Physics.Rng.int64 b)

let test_rng_int_range () =
  let rng = Physics.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Physics.Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_uniform_range () =
  let rng = Physics.Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let u = Physics.Rng.uniform rng in
    Alcotest.(check bool) "uniform in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_rng_gaussian_moments () =
  let rng = Physics.Rng.create ~seed:11 in
  let xs = Array.init 20000 (fun _ -> Physics.Rng.gaussian rng ~mean:3.0 ~sigma:2.0) in
  Alcotest.(check bool) "mean near 3" true (Float.abs (Physics.Stats.mean xs -. 3.0) < 0.05);
  Alcotest.(check bool) "sigma near 2" true (Float.abs (Physics.Stats.stddev xs -. 2.0) < 0.05)

let test_rng_bernoulli () =
  let rng = Physics.Rng.create ~seed:12 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Physics.Rng.bernoulli rng ~p:0.25 then incr hits
  done;
  Alcotest.(check bool) "p=0.25" true (Float.abs (float_of_int !hits /. 10000.0 -. 0.25) < 0.02);
  Alcotest.(check bool) "p=0 never" false (Physics.Rng.bernoulli rng ~p:0.0)

(* An independent splitmix64 (Steele, Lea & Flood 2014): the stream
   [Rng] must reproduce draw for draw, whatever its state layout. *)
module Ref_splitmix = struct
  type t = { mutable s : int64; mutable spare : float option }

  let gamma = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { s = mix (Int64.of_int seed); spare = None }

  let next t =
    t.s <- Int64.add t.s gamma;
    mix t.s

  let uniform t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53
  let bool t = Int64.logand (next t) 1L = 1L

  (* One output per draw; outside (0, 1) the answer is fixed. *)
  let bernoulli t p =
    let u = uniform t in
    if Float.is_nan p || p <= 0.0 then false else if p >= 1.0 then true else u < p

  let gaussian t ~mean ~sigma =
    match t.spare with
    | Some z ->
      t.spare <- None;
      mean +. (sigma *. z)
    | None ->
      let rec positive () =
        let u = uniform t in
        if u > 0.0 then u else positive ()
      in
      let u1 = positive () in
      let u2 = uniform t in
      let r = Float.sqrt (-2.0 *. Float.log u1) in
      let theta = 2.0 *. Float.pi *. u2 in
      t.spare <- Some (r *. Float.sin theta);
      mean +. (sigma *. r *. Float.cos theta)

  let copy t = { s = t.s; spare = t.spare }
  let split t = { s = mix (next t); spare = None }
end

let check_float_bits name a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%h vs %h)" name a b) true
    (Int64.bits_of_float a = Int64.bits_of_float b)

let test_rng_reference_stream () =
  let rng = Physics.Rng.create ~seed:2024 and r = Ref_splitmix.create 2024 in
  for i = 1 to 200 do
    Alcotest.(check int64) (Printf.sprintf "int64 %d" i) (Ref_splitmix.next r) (Physics.Rng.int64 rng);
    Alcotest.(check bool) (Printf.sprintf "bool %d" i) (Ref_splitmix.bool r) (Physics.Rng.bool rng);
    check_float_bits (Printf.sprintf "uniform %d" i) (Ref_splitmix.uniform r) (Physics.Rng.uniform rng)
  done;
  List.iter
    (fun p ->
      for i = 1 to 50 do
        Alcotest.(check bool)
          (Printf.sprintf "bernoulli p=%h draw %d" p i)
          (Ref_splitmix.bernoulli r p) (Physics.Rng.bernoulli rng ~p)
      done;
      (* every draw consumed exactly one output *)
      Alcotest.(check int64) (Printf.sprintf "in step after p=%h" p) (Ref_splitmix.next r)
        (Physics.Rng.int64 rng))
    [ Float.nan; -0.0; -1.0; 0.0; 0.3; 1.0; 2.0 ];
  let ps = [| Float.nan; -0.0; -1.0; 0.0; 0.3; 1.0; 2.0; 0.7 |] in
  let v = Array.make (Array.length ps) false in
  for i = 1 to 20 do
    Physics.Rng.bernoulli_into rng ~p:ps v;
    Array.iteri
      (fun k p ->
        Alcotest.(check bool)
          (Printf.sprintf "bernoulli_into p=%h round %d" p i)
          (Ref_splitmix.bernoulli r p) v.(k))
      ps
  done;
  Alcotest.(check int64) "in step after bernoulli_into" (Ref_splitmix.next r) (Physics.Rng.int64 rng);
  for i = 1 to 101 do
    check_float_bits (Printf.sprintf "gaussian %d" i)
      (Ref_splitmix.gaussian r ~mean:1.5 ~sigma:0.25)
      (Physics.Rng.gaussian rng ~mean:1.5 ~sigma:0.25)
  done;
  (* A copy taken with a Box-Muller spare pending keeps it. *)
  let rc = Physics.Rng.copy rng and refc = Ref_splitmix.copy r in
  for i = 1 to 4 do
    check_float_bits (Printf.sprintf "copy gaussian %d" i)
      (Ref_splitmix.gaussian refc ~mean:0.0 ~sigma:1.0)
      (Physics.Rng.gaussian rc ~mean:0.0 ~sigma:1.0);
    check_float_bits (Printf.sprintf "original gaussian %d" i)
      (Ref_splitmix.gaussian r ~mean:0.0 ~sigma:1.0)
      (Physics.Rng.gaussian rng ~mean:0.0 ~sigma:1.0)
  done;
  let rs = Physics.Rng.split rng and refs = Ref_splitmix.split r in
  for i = 1 to 20 do
    Alcotest.(check int64) (Printf.sprintf "split child %d" i) (Ref_splitmix.next refs)
      (Physics.Rng.int64 rs);
    Alcotest.(check int64) (Printf.sprintf "split parent %d" i) (Ref_splitmix.next r)
      (Physics.Rng.int64 rng)
  done

(* Minor words per draw, averaged over many draws so the measurement's
   own allocation rounds away. *)
let minor_words_per_draw draw =
  let n = 100_000 in
  draw ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    draw ()
  done;
  let w1 = Gc.minor_words () in
  int_of_float ((w1 -. w0) /. float_of_int n)

let test_rng_draws_allocate_nothing () =
  let rng = Physics.Rng.create ~seed:3 in
  Alcotest.(check int) "minor words per bool" 0
    (minor_words_per_draw (fun () -> ignore (Sys.opaque_identity (Physics.Rng.bool rng))));
  List.iter
    (fun p ->
      Alcotest.(check int) (Printf.sprintf "minor words per bernoulli p=%g" p) 0
        (minor_words_per_draw (fun () ->
             ignore (Sys.opaque_identity (Physics.Rng.bernoulli rng ~p)))))
    [ 0.3; 0.0; 1.0 ];
  let p = [| 0.3; 0.0; 1.0; 0.5 |] and v = Array.make 4 false in
  Alcotest.(check int) "minor words per bernoulli_into" 0
    (minor_words_per_draw (fun () -> Physics.Rng.bernoulli_into rng ~p v))

let test_rng_shuffle () =
  let rng = Physics.Rng.create ~seed:13 in
  let a = Array.init 20 Fun.id in
  Physics.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 20 Fun.id)

let test_rng_choose () =
  let rng = Physics.Rng.create ~seed:14 in
  for _ = 1 to 100 do
    let v = Physics.Rng.choose rng [| 1; 2; 3 |] in
    Alcotest.(check bool) "chosen from array" true (v >= 1 && v <= 3)
  done

(* --- Properties --- *)

let prop_brent_monotone_cubic =
  QCheck.Test.make ~name:"brent finds the root of shifted cubics" ~count:200
    QCheck.(float_range (-10.0) 10.0)
    (fun c ->
      let f x = (x *. x *. x) -. c in
      let root = Physics.Numerics.brent ~f (-30.0) 30.0 in
      Float.abs (f root) < 1e-6)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentiles stay within min..max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range (-100.) 100.)) (float_range 0. 100.))
    (fun (l, p) ->
      let xs = Array.of_list l in
      let v = Physics.Stats.percentile xs ~p in
      let lo, hi = Physics.Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_interp_within_hull =
  QCheck.Test.make ~name:"linear interpolation stays within y-hull" ~count:200
    QCheck.(triple (float_range 0. 1.) (float_range 0. 5.) (float_range (-3.) 3.))
    (fun (x, y0, y1) ->
      let xs = [| 0.0; 1.0 |] and ys = [| y0; y1 |] in
      let v = Physics.Numerics.interp_linear ~xs ~ys x in
      v >= Float.min y0 y1 -. 1e-9 && v <= Float.max y0 y1 +. 1e-9)

let prop_kahan_matches_naive =
  QCheck.Test.make ~name:"kahan sum matches naive within tolerance" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (float_range (-1e3) 1e3))
    (fun l ->
      let xs = Array.of_list l in
      let naive = Array.fold_left ( +. ) 0.0 xs in
      Float.abs (Physics.Numerics.kahan_sum xs -. naive) < 1e-6)

let props = List.map QCheck_alcotest.to_alcotest
  [ prop_brent_monotone_cubic; prop_percentile_bounds; prop_interp_within_hull; prop_kahan_matches_naive ]

let () =
  Alcotest.run "physics"
    [
      ( "const-units",
        [
          Alcotest.test_case "thermal voltage" `Quick test_thermal_voltage;
          Alcotest.test_case "permittivities" `Quick test_eps;
          Alcotest.test_case "temperature conversions" `Quick test_temperature_conversions;
          Alcotest.test_case "time units" `Quick test_time_units;
          Alcotest.test_case "SI pretty printing" `Quick test_si_string;
          Alcotest.test_case "percent printing" `Quick test_pp_percent;
        ] );
      ( "numerics",
        [
          Alcotest.test_case "bisect sqrt2" `Quick test_bisect;
          Alcotest.test_case "bisect endpoint roots" `Quick test_bisect_endpoint_roots;
          Alcotest.test_case "bisect without bracket" `Quick test_bisect_no_bracket;
          Alcotest.test_case "brent log root" `Quick test_brent;
          Alcotest.test_case "brent stiff exponential" `Quick test_brent_hard;
          Alcotest.test_case "fixpoint" `Quick test_fixpoint;
          Alcotest.test_case "linear interpolation" `Quick test_interp_linear;
          Alcotest.test_case "trapezoid integration" `Quick test_integrate;
          Alcotest.test_case "kahan summation" `Quick test_kahan;
          Alcotest.test_case "linspace/logspace" `Quick test_linspace_logspace;
          Alcotest.test_case "close" `Quick test_close;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean and variance" `Quick test_mean_var;
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "erf and normal cdf" `Quick test_erf_cdf;
          Alcotest.test_case "normal pdf" `Quick test_normal_pdf;
          Alcotest.test_case "correlation" `Quick test_correlation;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "splitmix64 reference stream" `Quick test_rng_reference_stream;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle;
          Alcotest.test_case "choose" `Quick test_rng_choose;
        ] );
      ("properties", props);
    ]
