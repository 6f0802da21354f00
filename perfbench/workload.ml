(* Seeded request sequences for the serving benchmark's three workloads.

   Everything here is a pure function of (workload, seed, seconds): the
   same arguments give byte-identical request lines. Randomness comes from
   a private splitmix64 stream rather than the program's own generator, so
   a change to the program's RNG cannot change the benchmark's inputs.
   Lines are minimal client requests (only the fields a caller would set),
   not the encoder's fully materialized form.

   Mixes are drawn by quota: each block of steps holds a fixed multiset of
   request kinds, shuffled by the seed. Seeds therefore change which
   requests are sent and in what order, but not the proportions, which
   keeps the spread between seeds small. *)

module Json = Server.Json

type t = {
  lines : string array;  (** distinct request lines, without newline *)
  ops : string array;  (** the wire op of each line *)
  prewarm : int array;  (** sent once, in order, during set-up *)
  conns : int array array;
      (** each connection's closed-loop sequence: one connection where a
          second would only queue behind the first on the server's single
          domain, two where concurrency is the point (singleflight) *)
  sync : int array;  (** steps at which all connections send at the same time *)
  hop : int array;  (** cheap cache hits sampled for the router hop *)
}

(* --- splitmix64 --- *)

type rng = { mutable s : int64 }

let next g =
  g.s <- Int64.add g.s 0x9E3779B97F4A7C15L;
  let z = g.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* One independent stream per (seed, purpose). *)
let stream seed purpose =
  let g = { s = Int64.(add (mul (of_int seed) 0x2545F4914F6CDD1DL) (of_int (purpose * 7919))) } in
  ignore (next g);
  g

let int g n = Int64.to_int (Int64.unsigned_rem (next g) (Int64.of_int n))
let uniform g = Int64.to_float (Int64.shift_right_logical (next g) 11) /. 9007199254740992.0

let gaussian g =
  let u1 = Float.max 1e-300 (uniform g) in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. uniform g)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* --- request lines --- *)

let request fields = Json.to_string (Json.Assoc (("v", Json.Int 1) :: fields))
let num x = if Float.is_integer x then Json.Int (int_of_float x) else Json.Float x
let named c = Json.String c

let bench_memo = Hashtbl.create 4

let inline_bench c =
  match Hashtbl.find_opt bench_memo c with
  | Some j -> j
  | None ->
    let j =
      Json.Assoc [ ("bench", Json.String (Circuit.Bench_io.to_string (Circuit.Generators.by_name c))) ]
    in
    Hashtbl.add bench_memo c j;
    j

let pi_memo = Hashtbl.create 8

let n_pi c =
  match Hashtbl.find_opt pi_memo c with
  | Some n -> n
  | None ->
    let n = Circuit.Netlist.n_primary_inputs (Circuit.Generators.by_name c) in
    Hashtbl.add pi_memo c n;
    n

(* A fresh random standby vector: with >= 32 primary inputs two draws
   collide with negligible probability, so every such request is a new
   result-cache key that still shares the circuit's prepared pipeline. *)
let vector g c = Json.String (String.init (n_pi c) (fun _ -> if int g 2 = 1 then '1' else '0'))

let analyze_fields ?(config = []) ?standby circuit =
  [ ("op", Json.String "analyze"); ("circuit", circuit) ]
  @ (match standby with Some s -> [ ("standby", s) ] | None -> [])
  @ if config = [] then [] else [ ("config", Json.Assoc config) ]

let years y = [ ("years", num y) ]

(* JEP122H-shaped measurements, dvth = A0 exp(-Ea/kT) V^alpha t^n plus
   1 mV noise, anchored at 46 mV after ten years at 400 K and 1 V. *)
let calibrate_fields g =
  let k_b = 8.617333262e-5 and ea = 0.12 and alpha = 2.0 and n = 0.25 in
  let ten_years = 10.0 *. 365.25 *. 86400.0 in
  let a0 = 0.046 /. (exp (-.ea /. (k_b *. 400.0)) *. (ten_years ** n)) in
  let points =
    List.concat_map
      (fun time_s ->
        List.concat_map
          (fun temp_k ->
            List.map
              (fun vdd_v ->
                let dvth = (a0 *. exp (-.ea /. (k_b *. temp_k)) *. (vdd_v ** alpha) *. (time_s ** n)) +. (0.001 *. gaussian g) in
                Json.Assoc
                  [
                    ("time_s", num time_s);
                    ("temp_k", num temp_k);
                    ("vdd_v", num vdd_v);
                    ("dvth_v", Json.Float (Float.round (dvth *. 1e7) /. 1e7));
                  ])
              [ 1.0; 1.1 ])
          [ 365.0; 400.0 ])
      [ 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 ]
  in
  [
    ("op", Json.String "calibrate");
    ("measurements", Json.List points);
    ("chains", Json.Int 2);
    ("warmup", Json.Int 200);
    ("samples", Json.Int 200);
    ("seed", Json.Int (1 + int g 1_000_000_000));
  ]

(* --- sequence assembly --- *)

type builder = {
  index : (string, int) Hashtbl.t;
  mutable rev : (string * string) list;
  mutable n : int;
}

let builder () = { index = Hashtbl.create 256; rev = []; n = 0 }

let intern b fields =
  let line = request fields in
  match Hashtbl.find_opt b.index line with
  | Some i -> i
  | None ->
    let op = match List.assoc_opt "op" fields with Some (Json.String op) -> op | _ -> "?" in
    let i = b.n in
    Hashtbl.add b.index line i;
    b.rev <- (line, op) :: b.rev;
    b.n <- i + 1;
    i

let finish b ~prewarm ~conns ~sync ~hop =
  let pairs = Array.of_list (List.rev b.rev) in
  { lines = Array.map fst pairs; ops = Array.map snd pairs; prewarm; conns; sync; hop }

(* Largest-remainder rounding of [block * w_k / sum w]. *)
let quotas weights ~block =
  let total = Array.fold_left ( +. ) 0.0 weights in
  let exact = Array.map (fun w -> w /. total *. float_of_int block) weights in
  let q = Array.map truncate exact in
  let short = block - Array.fold_left ( + ) 0 q in
  let order = Array.init (Array.length weights) Fun.id in
  let rem i = exact.(i) -. float_of_int q.(i) in
  Array.stable_sort (fun i j -> compare (rem j) (rem i)) order;
  for r = 0 to short - 1 do
    q.(order.(r)) <- q.(order.(r)) + 1
  done;
  q

(* Deals [deck] one card per call, reshuffling after each full pass, so
   every pass holds each card once. *)
let dealer g deck =
  let deck = Array.copy deck in
  let dealt = ref (Array.length deck) in
  fun () ->
    if !dealt = Array.length deck then begin
      shuffle g deck;
      dealt := 0
    end;
    incr dealt;
    deck.(!dealt - 1)

(* Repeats [block ()] (a fresh shuffled deck per call) up to [steps]. *)
let fill ~steps block =
  let out = Array.make steps 0 in
  let pos = ref 0 in
  while !pos < steps do
    Array.iter
      (fun x ->
        if !pos < steps then begin
          out.(!pos) <- x;
          incr pos
        end)
      (block ())
  done;
  out

(* warm_hits: a Zipf(1.1) draw over 64 prewarmed result keys — seven named
   circuits from c17 to c7552 at eight lifetimes, plus inline .bench texts
   of c880 and c1908. Every request is a result-cache hit, so the front
   end (framing, JSON, circuit resolution, digest, lookup, encode) does
   all the work. Key ranks are fixed; only the draw order is seeded.

   Ranks go round by round (one lifetime per round) in the order of
   [round_order]. It is chosen so that, sorted by cost, the median falls
   in the middle of c6288's share (35-66%) and the p95 in the middle of
   c7552's (90-100%), not on the edge between two circuits' costs, where
   a percentile would jump between them from seed to seed, nor in the
   tail of one circuit's costs, which garbage collection widens; and so
   that the median is a request of a millisecond or more, whose time the
   host's wake-up jitter moves less than a shorter one's. *)
let warm_hits ~seed ~seconds =
  let b = builder () in
  let round_order = [| `N "c6288"; `N "c1908"; `N "c17"; `N "c7552"; `N "c432"; `Inline; `N "c499"; `N "c880" |] in
  let lifetimes = [| 1.; 2.; 3.; 5.; 7.; 10.; 15.; 20. |] in
  let inline_lifetimes = [| 4.; 6.; 8.; 12. |] in
  let keys =
    Array.concat
      (List.init 8 (fun round ->
           Array.map
             (function
               | `N c -> intern b (analyze_fields ~config:(years lifetimes.(round)) (named c))
               | `Inline ->
                 let c = if round mod 2 = 0 then "c880" else "c1908" in
                 intern b (analyze_fields ~config:(years inline_lifetimes.(round / 2)) (inline_bench c)))
             round_order))
  in
  let weights = Array.init (Array.length keys) (fun k -> float_of_int (k + 1) ** -1.1) in
  let q = quotas weights ~block:256 in
  let deck = Array.concat (Array.to_list (Array.mapi (fun k n -> Array.make n keys.(k)) q)) in
  let steps = max 512 (300 * seconds) in
  let conns =
    Array.init 1 (fun c ->
        let g = stream seed (10 + c) in
        fill ~steps (fun () ->
            let d = Array.copy deck in
            shuffle g d;
            d))
  in
  (* round 0 without c1908 and c7552 *)
  let hop = Array.map (fun k -> keys.(k)) [| 0; 2; 4; 5; 6; 7 |] in
  finish b ~prewarm:keys ~conns ~sync:[||] ~hop

let cold_circuits = [| "c432"; "c499"; "c880"; "c6288" |]

(* cold_compute: every request is a new result key on a small circuit, so
   Flow.Platform, the compiled core, Ivc, Calibrate and the pool do the
   work, and the result and prepared LRUs keep evicting. Per block of 40
   steps: 24 analyze with fresh standby vectors, 6 ivc_search with new
   seeds, 4 sleep_sizing with new beta, 4 analyze with a new Monte-Carlo
   SP seed (a new prepare fingerprint), one 16-job batch, one calibrate.
   Two thirds of the fresh-vector analyses are on c6288 (2 c432, 3 c499,
   3 c880, 16 c6288), so the median request and the median analyze both
   lie inside c6288's cost band rather than on an edge between two
   circuits' costs, and are compute-bound requests of ~13 ms that the
   host's wake-up jitter moves little. *)
let cold_compute ~seed ~seconds =
  let b = builder () in
  let prewarm =
    Array.map (fun c -> intern b (analyze_fields ~standby:(Json.String "worst") (named c))) cold_circuits
  in
  let kinds =
    Array.concat
      [
        Array.concat
          (List.map2 (fun c n -> Array.make n (`Analyze c)) (Array.to_list cold_circuits) [ 2; 3; 3; 16 ]);
        Array.map (fun i -> `Ivc cold_circuits.(i)) [| 0; 1; 2; 3; 0; 2 |];
        Array.map (fun c -> `Sleep c) cold_circuits;
        Array.map (fun c -> `Monte_carlo c) cold_circuits;
        [| `Batch; `Calibrate |];
      ]
  in
  let steps = max 256 (150 * seconds) in
  let conns =
    Array.init 1 (fun c ->
        let g = stream seed (20 + c) in
        let line = function
          | `Analyze c -> analyze_fields ~standby:(vector g c) (named c)
          | `Ivc c ->
            [
              ("op", Json.String "ivc_search");
              ("circuit", named c);
              ("seed", Json.Int (1 + int g 1_000_000_000));
            ]
          | `Sleep c ->
            [
              ("op", Json.String "sleep_sizing");
              ("circuit", named c);
              ("beta", Json.Float (0.02 +. (0.04 *. uniform g)));
            ]
          | `Monte_carlo c ->
            let sp =
              Json.Assoc [ ("n_vectors", Json.Int 1024); ("seed", Json.Int (1 + int g 1_000_000_000)) ]
            in
            analyze_fields ~standby:(Json.String "worst") ~config:[ ("sp_method", sp) ] (named c)
          | `Batch ->
            [
              ("op", Json.String "batch");
              ( "jobs",
                Json.List
                  (List.init 16 (fun i ->
                       let c = cold_circuits.(i mod 4) in
                       Json.Assoc (analyze_fields ~standby:(vector g c) (named c)))) );
            ]
          | `Calibrate -> calibrate_fields g
        in
        fill ~steps (fun () ->
            let d = Array.copy kinds in
            shuffle g d;
            Array.map (fun k -> intern b (line k)) d))
  in
  finish b ~prewarm ~conns ~sync:[||] ~hop:prewarm

(* fleet_mix: through the router over two backends. Per block of 10 steps
   on each connection: 6 hits on 24 prewarmed keys (named circuits and
   inline c880 text, which the router must parse to route), 3 cold
   analyze, and at the last step both connections send the same new key
   at the same time, so the router's singleflight coalesces them. Hits and
   cold circuits are dealt from shuffled decks, so every seed sends each
   in the same proportion. *)
let fleet_mix ~seed ~seconds =
  let b = builder () in
  let lifetimes = [| 1.; 2.; 5.; 10. |] in
  let hot =
    Array.concat
      [
        Array.concat
          (List.map
             (fun c -> Array.map (fun y -> intern b (analyze_fields ~config:(years y) (named c))) lifetimes)
             [ "c17"; "c432"; "c499"; "c880"; "c6288" ]);
        Array.map
          (fun y -> intern b (analyze_fields ~config:(years y) (inline_bench "c880")))
          [| 4.; 6.; 8.; 12. |];
      ]
  in
  let steps = max 500 (300 * seconds) in
  let blocks = (steps + 9) / 10 in
  let shared = stream seed 30 in
  let sync_line =
    Array.init blocks (fun k ->
        let c = cold_circuits.(k mod 4) in
        intern b (analyze_fields ~standby:(vector shared c) (named c)))
  in
  let conns =
    Array.init 2 (fun c ->
        let g = stream seed (40 + c) in
        let deal_hot = dealer g hot and deal_cold = dealer g cold_circuits in
        let seq = Array.make (blocks * 10) 0 in
        for k = 0 to blocks - 1 do
          let slots = [| `Hit; `Hit; `Hit; `Hit; `Hit; `Hit; `Cold; `Cold; `Cold |] in
          shuffle g slots;
          Array.iteri
            (fun i slot ->
              seq.((10 * k) + i) <-
                (match slot with
                | `Hit -> deal_hot ()
                | `Cold ->
                  let c = deal_cold () in
                  intern b (analyze_fields ~standby:(vector g c) (named c))))
            slots;
          seq.((10 * k) + 9) <- sync_line.(k)
        done;
        seq)
  in
  let hop = [| hot.(0); hot.(4); hot.(8); hot.(12); hot.(16); hot.(20) |] in
  finish b ~prewarm:hot ~conns ~sync:(Array.init blocks (fun k -> (10 * k) + 9)) ~hop

let generate ~workload ~seed ~seconds =
  match workload with
  | "warm_hits" -> warm_hits ~seed ~seconds
  | "cold_compute" -> cold_compute ~seed ~seconds
  | "fleet_mix" -> fleet_mix ~seed ~seconds
  | w -> invalid_arg (Printf.sprintf "unknown workload %S (expected warm_hits, cold_compute or fleet_mix)" w)

(* Header line (JSON: ops, prewarm, per-connection sequences, sync steps,
   hop sample), then one request line per table entry. *)
let output oc w =
  let ints a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a)) in
  let header =
    Json.Assoc
      [
        ("ops", Json.List (Array.to_list (Array.map (fun o -> Json.String o) w.ops)));
        ("prewarm", ints w.prewarm);
        ("conns", Json.List (Array.to_list (Array.map ints w.conns)));
        ("sync", ints w.sync);
        ("hop", ints w.hop);
      ]
  in
  output_string oc (Json.to_string header);
  output_char oc '\n';
  Array.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    w.lines
