(* Compiled duty tables: the standby-state dependence of the aging
   analysis, reduced to lookups.

   With signal probabilities and the operating schedule fixed, the duty
   pair of a gate stage is (active, standby): [active] depends only on
   the gate's fanin probabilities, and [standby] is 1.0 or 0.0, i.e.
   whether some device of the stage is stressed under the gate's standby
   input vector. So each flat stage can take exactly two threshold
   shifts, and a new standby vector costs one logic simulation plus a
   per-stage pick.

   Three tables, split by what they depend on:
   - [stress] (cells only): per arena cell and fanin index, the bitmask
     of stages with a stressed device, i.e. [Cell_nbti.stage_stressed]
     evaluated once over all 2^k input vectors. The index is the
     little-endian fanin index [Arena.eval_scalar] leaves in [idxs].
   - [active] (plus signal probabilities): per flat stage,
     [Cell_nbti.stage_duty] of the gate's fanin probabilities.
   - [shifts] (plus the aging config): per flat stage,
     [scale *. Vth_shift.dvth] at standby duty 0.0 and at 1.0.

   [Circuit_aging.duty_table] reads the pairs back out of [active] and
   [stress]. Picking a stored value is bit-identical to the boxed chain
   the test oracle keeps (a walk of every gate's transistor networks,
   one R-D evaluation per stage): each entry is the boxed expression
   evaluated on the inputs the boxed chain would pass it (the stage's
   [active] and exactly 0.0 or 1.0), and a pure float function returns
   the same bits for the same arguments. The max-dvth fold runs over the
   picked values in node/stage order, as the boxed reference analysis
   folds them.

   The tables hold both shifts of every stage, including pairs no
   standby state the boxed chain meets would evaluate. Evaluating those
   is safe: [Cell_nbti] clamps every active duty into [0, 1], so with a
   standby duty of 0.0 or 1.0 the equivalent duty stays in [0, 1] and
   the R-D model accepts every pair. *)

type t = {
  a : Arena.t;
  stress : int array array;  (* per arena cell, per fanin index: stressed-stage bitmask *)
  active : float array;  (* per flat stage: the worst device's active-mode duty *)
}

let stress_masks polarity (cell : Cell.Stdcell.t) =
  let k = cell.Cell.Stdcell.n_inputs in
  let n_st = Array.length cell.Cell.Stdcell.stages in
  if n_st >= Sys.int_size then invalid_arg "Duty.build: too many stages for a stage bitmask";
  Array.init (1 lsl k) (fun idx ->
      let vector = Cell.Stdcell.vector_of_index ~n_inputs:k idx in
      let devs = Cell.Cell_nbti.stressed_under_vector ~polarity cell ~vector in
      let m = ref 0 in
      for s = 0 to n_st - 1 do
        if Cell.Cell_nbti.stage_stressed devs ~stage:s then m := !m lor (1 lsl s)
      done;
      !m)

let build (a : Arena.t) ~polarity ~node_sp =
  let active = Array.make a.Arena.n_stages 0.0 in
  for i = 0 to a.Arena.n_nodes - 1 do
    if a.Arena.op.(i) <> Arena.op_pi then begin
      let b = a.Arena.fanin_off.(i) in
      let k = a.Arena.fanin_off.(i + 1) - b in
      let sp = Array.init k (fun j -> node_sp.(a.Arena.fanin.(b + j))) in
      let cell = a.Arena.cells.(a.Arena.cell_of.(i)).Arena.cell in
      let devs = Cell.Cell_nbti.stress_probabilities ~polarity cell ~sp in
      let sb = a.Arena.stage_off.(i) in
      for s = 0 to a.Arena.stage_off.(i + 1) - sb - 1 do
        active.(sb + s) <- Cell.Cell_nbti.stage_duty devs ~stage:s
      done
    end
  done;
  let stress =
    Array.map (fun (ci : Arena.cellinfo) -> stress_masks polarity ci.Arena.cell) a.Arena.cells
  in
  { a; stress; active }

(* The R-D model one polarity is evaluated under. *)
type model = {
  params : Nbti.Rd_model.params;
  tech : Device.Tech.t;
  schedule : Nbti.Schedule.t;
  time : float;
  cond : Nbti.Vth_shift.device_cond;
  scale : float;
}

(* The per-stage R-D shift of a duty pair, the one copy of it: every
   table here, [Aging.build] and [Circuit_aging.stage_dvth_of_duties]
   evaluate it. *)
let dvth m ~active ~standby =
  let sched = Nbti.Schedule.with_stress_duties m.schedule ~active ~standby in
  m.scale *. Nbti.Vth_shift.dvth m.params m.tech m.cond ~schedule:sched ~time:m.time

type shifts = {
  duty : t;
  model : model;
  relaxed : float array;  (* per flat stage: the shift at standby duty 0.0 *)
  stressed : float array;  (* per flat stage: the shift at standby duty 1.0 *)
  max_relaxed : float;  (* max-dvth fold over [relaxed] *)
  max_stressed : float;
}

(* Flat stages are contiguous in node order and primary inputs own
   none, so an index-order fold is the node/stage-order fold. *)
let fold_max d = Array.fold_left Float.max 0.0 d

let shifts duty model =
  let table standby = Array.map (fun active -> dvth model ~active ~standby) duty.active in
  let relaxed = table 0.0 and stressed = table 1.0 in
  { duty; model; relaxed; stressed; max_relaxed = fold_max relaxed; max_stressed = fold_max stressed }

(* A bounding state: every stage relaxed or every stage stressed. *)
let bound sh ~stressed =
  if stressed then (sh.stressed, sh.max_stressed) else (sh.relaxed, sh.max_relaxed)

(* Gate [i]'s stressed-stage bitmask under fanin index [idx]. *)
let gate_mask sh i ~idx = sh.duty.stress.(sh.duty.a.Arena.cell_of.(i)).(idx)

(* Flat stage [flat], local stage [s] of its gate, under the gate's mask. *)
let[@inline] stage_shift sh ~mask ~s flat =
  if (mask lsr s) land 1 = 1 then sh.stressed.(flat) else sh.relaxed.(flat)

(* Fills [dvth] for the standby vector whose per-gate fanin indices
   [Arena.eval_bool] left in [idxs]; returns the max-dvth fold. *)
let pick sh ~idxs ~dvth =
  let a = sh.duty.a in
  let acc = ref 0.0 in
  for i = 0 to a.Arena.n_nodes - 1 do
    if a.Arena.op.(i) <> Arena.op_pi then begin
      let mask = gate_mask sh i ~idx:idxs.(i) in
      let sb = a.Arena.stage_off.(i) in
      for flat = sb to a.Arena.stage_off.(i + 1) - 1 do
        let d = stage_shift sh ~mask ~s:(flat - sb) flat in
        dvth.(flat) <- d;
        acc := Float.max !acc d
      done
    end
  done;
  !acc
