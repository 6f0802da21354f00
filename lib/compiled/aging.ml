(* Compiled NBTI shape: the per-stage duty-cycle dependence of
   [Nbti.Vth_shift.dvth], factored away from the per-sample kv term.

   For a fixed (params, tech, schedule, time) and a gate-stage duty pair
   (active, standby), the boxed shift is

     dvth = kv *. s_n(c_eq, n) *. tau_eq^e                 (recoverable)
            ... + fp-weighted kv *. (c_eq *. tau_eq *. n)^e (permanent)

   where only [kv] depends on the device condition (vth0 offset of a
   process-variation sample). Everything else is captured here once per
   flat stage, in the boxed association order, so
   [sample_dvth sh flat kv] is bit-identical to calling
   [Nbti.Vth_shift.dvth] with the same kv's condition.

   The [dvth] array additionally holds the fully evaluated nominal shift
   ([Duty.dvth] at the model's own condition and scale) for the
   deterministic aging analysis, along with its running maximum in the
   boxed fold order. *)

type t = {
  a : Arena.t;
  dvth : float array;  (* per flat stage: scale *. Vth_shift.dvth at [cond] *)
  max_dvth : float;  (* Float.max fold over dvth in node/stage order, from 0.0 *)
  ok : bool array;  (* time > 0 && c_eq > 0: the boxed early-exit guards *)
  sn : float array;  (* Ac_stress.s_n ~c:c_eq ~n *)
  tau_e : float array;  (* tau_eq ^ time_exponent *)
  pow_st : float array;  (* (c_eq *. tau_eq *. n) ^ time_exponent *)
  fp : float;
  one_minus_fp : float;
  kv_t_ref : float;  (* temperature the per-sample kv must be evaluated at *)
}

(* [duties] is the aging layer's table: per node, per stage,
   (active_duty, standby_duty); [||] rows for primary inputs. *)
let build (a : Arena.t) (m : Duty.model) ~(duties : (float * float) array array) =
  let params = m.Duty.params and schedule = m.Duty.schedule and time = m.Duty.time in
  let ns = a.Arena.n_stages in
  let dvth = Array.make ns 0.0 in
  let ok = Array.make ns false in
  let sn = Array.make ns 0.0 in
  let tau_e = Array.make ns 0.0 in
  let pow_st = Array.make ns 0.0 in
  let e = params.Nbti.Rd_model.time_exponent in
  let fp = params.Nbti.Rd_model.permanent_fraction in
  let max_dvth = ref 0.0 in
  for i = 0 to a.Arena.n_nodes - 1 do
    if a.Arena.op.(i) <> Arena.op_pi then begin
      let row = duties.(i) in
      for s = 0 to Array.length row - 1 do
        let flat = a.Arena.stage_off.(i) + s in
        let active, standby = row.(s) in
        dvth.(flat) <- Duty.dvth m ~active ~standby;
        max_dvth := Float.max !max_dvth dvth.(flat);
        let eq =
          Nbti.Schedule.equivalent params (Nbti.Schedule.with_stress_duties schedule ~active ~standby)
        in
        if time > 0.0 && eq.Nbti.Schedule.c_eq > 0.0 then begin
          ok.(flat) <- true;
          let n = Float.max 1.0 (time *. eq.Nbti.Schedule.n_scale) in
          sn.(flat) <- Nbti.Ac_stress.s_n ~c:eq.Nbti.Schedule.c_eq ~n;
          tau_e.(flat) <- Float.pow eq.Nbti.Schedule.tau_eq e;
          pow_st.(flat) <- Float.pow (eq.Nbti.Schedule.c_eq *. eq.Nbti.Schedule.tau_eq *. n) e
        end
      done
    end
  done;
  {
    a;
    dvth;
    max_dvth = !max_dvth;
    ok;
    sn;
    tau_e;
    pow_st;
    fp;
    one_minus_fp = 1.0 -. fp;
    kv_t_ref = schedule.Nbti.Schedule.t_ref;
  }

(* The boxed [Vth_shift.dvth] body, with the shape terms substituted.
   [kv] must come from [Nbti.Rd_model.kv params tech ~vgs ~vth0
   ~temp_k:sh.kv_t_ref] for the sample's condition. *)
let sample_dvth sh flat kv =
  if not sh.ok.(flat) then 0.0
  else begin
    let recoverable = kv *. sh.sn.(flat) *. sh.tau_e.(flat) in
    if sh.fp <= 0.0 then recoverable
    else (sh.one_minus_fp *. recoverable) +. (sh.fp *. (kv *. sh.pow_st.(flat)))
  end
