(* splitmix64 with an unboxed state: the 64-bit counter lives in an
   8-byte [Bytes] cell read and written with [get/set_int64_le], and the
   Box-Muller spare in a one-element float array plus a flag. With the
   step and the mixer inlined, every int64 stays in a register, so
   [bool] and [bernoulli] allocate nothing. *)
type t = { state : Bytes.t; spare : Float.Array.t; mutable has_spare : bool }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let state = Bytes.create 8 in
  Bytes.set_int64_le state 0 s;
  { state; spare = Float.Array.make 1 0.0; has_spare = false }

let create ~seed = of_state (mix64 (Int64.of_int seed))

(* Advances the counter and returns it, unmixed. *)
let[@inline] step t =
  let s = Int64.add (Bytes.get_int64_le t.state 0) golden_gamma in
  Bytes.set_int64_le t.state 0 s;
  s

(* [step] for its effect alone: an ignored int64 would still be boxed. *)
let[@inline] skip t =
  Bytes.set_int64_le t.state 0 (Int64.add (Bytes.get_int64_le t.state 0) golden_gamma)

let[@inline] int64 t = mix64 (step t)
let split t = of_state (mix64 (int64 t))

let copy t =
  { state = Bytes.copy t.state; spare = Float.Array.copy t.spare; has_spare = t.has_spare }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t n =
  assert (n > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw t n =
    let r = bits t in
    let v = r mod n in
    if r - v > (1 lsl 62) - n then draw t n else v
  in
  draw t n

let[@inline] uniform t =
  (* 53 uniform mantissa bits. *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int r *. 0x1.0p-53

let float t x = uniform t *. x
let bool t = Int64.logand (int64 t) 1L = 1L

(* A uniform draw lies in [0, 1), so outside (0, 1) the answer does not
   depend on it: p >= 1 is always true, p <= 0 (-0.0 included) and nan
   always false. Those draws only advance the counter, keeping the
   stream in step with a drawing caller. *)
let[@inline] bernoulli t ~p =
  if p > 0.0 && p < 1.0 then uniform t < p
  else begin
    skip t;
    p >= 1.0
  end

(* Reads each probability in place: passing one to [bernoulli] from
   another module would box it. *)
let bernoulli_into t ~p v =
  if Array.length v <> Array.length p then invalid_arg "Rng.bernoulli_into: length mismatch";
  for i = 0 to Array.length p - 1 do
    v.(i) <- bernoulli t ~p:p.(i)
  done

let gaussian t ~mean ~sigma =
  if t.has_spare then begin
    t.has_spare <- false;
    mean +. (sigma *. Float.Array.get t.spare 0)
  end
  else begin
    (* Box-Muller; u1 must be strictly positive for the log. *)
    let rec positive t =
      let u = uniform t in
      if u > 0.0 then u else positive t
    in
    let u1 = positive t and u2 = uniform t in
    let r = Float.sqrt (-2.0 *. Float.log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    Float.Array.set t.spare 0 (r *. Float.sin theta);
    t.has_spare <- true;
    mean +. (sigma *. r *. Float.cos theta)
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
