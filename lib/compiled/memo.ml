(* The key encoders of the compiled memo tables (each a
   [Parallel.Cache]: the [capacity] most recently used values are kept,
   which bounds memory for long-lived processes while steady workloads
   stay warm).

   Keys are canonical byte encodings, or digests of them: floats are
   written as their IEEE bit patterns (exact, no formatting round-trip),
   so two configurations hash equal exactly when every field the keyed
   computation reads is bit-for-bit equal. *)

module Fp = struct
  let f buf x = Buffer.add_int64_ne buf (Int64.bits_of_float x)

  let i buf n =
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf ';'

  let s buf str =
    Buffer.add_string buf str;
    Buffer.add_char buf ';'

  (* The bytes of [Array.iter (f buf) a], written without boxing each
     float's bits. *)
  let floats buf a =
    let n = Array.length a in
    i buf n;
    let b = Bytes.create (8 * n) in
    for k = 0 to n - 1 do
      Bytes.set_int64_ne b (8 * k) (Int64.bits_of_float a.(k))
    done;
    Buffer.add_bytes buf b

  let bools buf a =
    i buf (Array.length a);
    Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) a

  (* The config walks below write their fields, in one fixed order, as
     tokens into a sink: [num] takes a float, [label] a string. [sink buf]
     writes them as key bytes; [Flow.Platform]'s fingerprints render the
     same walks, so a field added to a walk moves every key and
     fingerprint that covers it. *)
  type sink = { num : float -> unit; label : string -> unit }

  let sink buf = { num = f buf; label = s buf }

  let tech k (t : Device.Tech.t) =
    k.label t.Device.Tech.name;
    k.num t.Device.Tech.vdd;
    k.num t.Device.Tech.vth_p;
    k.num t.Device.Tech.vth_n;
    k.num t.Device.Tech.tox;
    k.num t.Device.Tech.lmin;
    k.num t.Device.Tech.alpha;
    k.num t.Device.Tech.k_sat_n;
    k.num t.Device.Tech.k_sat_p;
    k.num t.Device.Tech.i0_sub;
    k.num t.Device.Tech.n_swing;
    k.num t.Device.Tech.dvth_dt;
    k.num t.Device.Tech.jg0;
    k.num t.Device.Tech.vg0;
    k.num t.Device.Tech.cg_per_wl;
    k.num t.Device.Tech.ea_sub_ev

  let params k (p : Nbti.Rd_model.params) =
    k.num p.Nbti.Rd_model.kv_ref;
    k.num p.Nbti.Rd_model.ref_temp_k;
    k.num p.Nbti.Rd_model.ref_overdrive;
    k.num p.Nbti.Rd_model.ref_vth0;
    k.num p.Nbti.Rd_model.ea_ev;
    k.num p.Nbti.Rd_model.e0_field;
    k.num p.Nbti.Rd_model.time_exponent;
    k.num p.Nbti.Rd_model.permanent_fraction

  let schedule k (sc : Nbti.Schedule.t) =
    k.num sc.Nbti.Schedule.period;
    k.num sc.Nbti.Schedule.t_ref;
    List.iter
      (fun (ph : Nbti.Schedule.phase) ->
        k.num ph.Nbti.Schedule.duration;
        k.num ph.Nbti.Schedule.temp_k;
        k.num ph.Nbti.Schedule.stress_duty;
        k.label
          (match ph.Nbti.Schedule.mode with
          | Nbti.Schedule.Active -> "A"
          | Nbti.Schedule.Standby -> "S"))
      sc.Nbti.Schedule.phases

  let digest buf = Digest.to_hex (Digest.bytes (Buffer.to_bytes buf))
end
