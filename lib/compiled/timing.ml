(* Compiled STA, the one static timing engine (the role of the STA tool
   [44] in the paper's flow): the cell delay model of
   [Cell.Cell_delay] and a forward arrival pass evaluated over flat
   per-stage constant arrays, the load model every timing caller and
   [Power] share, and the slope-resolved pass.

   Everything that does not depend on a threshold shift is precomputed
   at compile time, in forms that preserve the boxed float associativity
   exactly:
   - [lv]    = stage_load *. vdd            (boxed: (load *. vdd) /. drive)
   - [kw_*]  = k_sat *. wl                  (boxed: (k_sat *. wl) *. pow od alpha)
   - [fall0]: the dvth_n = 0 stage fall delays
   - [d0]: the whole fresh cell delay per gate (intra-stage max-plus
     over the stage dependency DAG with dvth = 0)
   The aged stage delay recomputes only [lv /. (kw *. pow od alpha)]
   with [od = vdd -. (vth_base +. dvth)] — the boxed operand order —
   so fresh and aged passes are bit-identical to the boxed reference
   analyzer the tests keep, including the Inf arrivals a non-conducting
   stage would produce. An optional per-node [scale] multiplies each
   gate's delay as [scale.(i) *. delay], the boxed [gate_scale] product
   (dual-V_th assignment slows its high-threshold gates this way).

   [build] is two per-gate steps: [node_load], the gate's load over the
   arena's CSR fanout, and [write_gate], its rows of the constant arrays.
   A gate-sizing session ([Incremental.Sizing]) owns a private [build]
   and re-runs both steps for the gates an edit touches; the table [get]
   memoizes is shared across threads and never edited. [loads], the
   loads [Power] and the slope-resolved pass read, runs [node_load] over
   every node, primary inputs included.

   Results are assembled into [result] with the boxed critical-output
   fold (strict [>], first-wins on ties) and the same backtrack, so
   critical paths match node for node. *)

type result = {
  arrival : float array;  (* latest arrival time [s] per node *)
  gate_delay : float array;  (* delay [s] per node (0 for primary inputs) *)
  max_delay : float;  (* latest primary-output arrival *)
  critical_path : int list;  (* node ids, primary input first *)
  critical_output : int;  (* the PO at which [max_delay] occurs *)
}

(* The zero threshold shift: fresh timing. *)
let no_aging ~gate:_ ~stage:_ = 0.0

(* Relative slowdown [(aged - fresh) / fresh] of a positive fresh delay. *)
let slowdown ~fresh ~aged =
  assert (fresh > 0.0);
  (aged -. fresh) /. fresh

(* Relative critical-path slowdown. *)
let degradation ~fresh ~aged = slowdown ~fresh:fresh.max_delay ~aged:aged.max_delay

(* --- Loads --- *)

(* The [po_load] a primary output carries when none is given: four
   inverter input capacitances, an FO4-style environment for otherwise
   unloaded outputs. *)
let default_po_load tech =
  4.0 *. Cell.Cell_delay.input_capacitance tech Cell.Stdcell.inv ~pin_index:0

(* Drain diffusion capacitance of a gate's output stage: roughly half a
   gate capacitance per unit device width hanging off the output node,
   so even a dangling gate has a positive delay. *)
let drain_cap tech (cell : Cell.Stdcell.t) =
  let stages = cell.Cell.Stdcell.stages in
  let out = stages.(Array.length stages - 1) in
  let width net =
    List.fold_left (fun acc (_, m) -> acc +. m.Device.Mosfet.wl) 0.0 (Cell.Network.devices net)
  in
  0.5 *. tech.Device.Tech.cg_per_wl
  *. (width out.Cell.Stdcell.pull_up +. width out.Cell.Stdcell.pull_down)

(* Node [i]'s capacitive load: the input capacitance of every fanout
   pin, summed over the arena's CSR fanout in (consumer, pin) order,
   plus a gate's own [drain_cap] (a primary input has none), plus
   [po_load] on a primary output. [cell g] is gate [g]'s current cell. *)
let node_load (a : Arena.t) ~tech ~po_load ~cell i =
  let cap = ref 0.0 in
  for j = a.Arena.fanout_off.(i) to a.Arena.fanout_off.(i + 1) - 1 do
    cap :=
      !cap
      +. Cell.Cell_delay.input_capacitance tech (cell a.Arena.fanout.(j))
           ~pin_index:a.Arena.fanout_pin.(j)
  done;
  let cap = if a.Arena.op.(i) = Arena.op_pi then !cap else !cap +. drain_cap tech (cell i) in
  cap +. if a.Arena.is_out.(i) then po_load else 0.0

let arena_cell (a : Arena.t) g = a.Arena.cells.(a.Arena.cell_of.(g)).Arena.cell

(* Every node's [node_load] under the arena's own cells; [po_load]
   defaults to [default_po_load]. *)
let loads (a : Arena.t) ~tech ?po_load () =
  let po_load = Option.value po_load ~default:(default_po_load tech) in
  Array.init a.Arena.n_nodes (node_load a ~tech ~po_load ~cell:(arena_cell a))

type t = {
  a : Arena.t;
  tech : Device.Tech.t;
  temp_k : float;
  vdd : float;
  alpha : float;
  vt_p : float;  (* Tech.vth_at `P at temp_k *)
  vt_n : float;
  (* (vdd - vt)^alpha, or 0 when that overdrive is not positive, so
     [kw *. pow_up0] is [drive] at dvth = 0 *)
  pow_up0 : float;
  pow_down0 : float;
  po_load : float;
  wls : (float * float) array array;  (* per arena cell, per stage: worst-case strengths *)
  lv : float array;  (* per flat stage *)
  kw_up : float array;
  kw_down : float array;
  fall0 : float array;
  d0 : float array;  (* per node; 0 for primary inputs *)
}

let[@inline] drive kw od alpha = if od <= 0.0 then 0.0 else kw *. Float.pow od alpha

(* Worst-case pull-up and pull-down conduction strength of each stage. *)
let strengths (cell : Cell.Stdcell.t) =
  Array.map
    (fun (st : Cell.Stdcell.stage) ->
      ( Cell.Cell_delay.worst_strength st.Cell.Stdcell.pull_up ~on_polarity:Device.Mosfet.P,
        Cell.Cell_delay.worst_strength st.Cell.Stdcell.pull_down ~on_polarity:Device.Mosfet.N ))
    cell.Cell.Stdcell.stages

(* The latest arrival among flat stage [s]'s dependencies. *)
let[@inline] stage_input (a : Arena.t) scratch s =
  let acc = ref 0.0 in
  for d = a.Arena.dep_off.(s) to a.Arena.dep_off.(s + 1) - 1 do
    acc := Float.max !acc scratch.(a.Arena.deps.(d))
  done;
  !acc

(* Gate [i]'s rows for [cell] (stage strengths [wls]) driving [load]:
   the per-stage constants and the fresh delay [d0], whose stage
   arrivals go through the per-flat-stage [scratch]. *)
let write_gate tm ~scratch i ~cell ~wls ~load =
  let a = tm.a in
  let b = a.Arena.stage_off.(i) in
  let n_st = a.Arena.stage_off.(i + 1) - b in
  for s = 0 to n_st - 1 do
    let flat = b + s in
    let wl_up, wl_down = wls.(s) in
    let lv = Cell.Cell_delay.stage_load tm.tech cell ~stage:s ~external_load:load *. tm.vdd in
    tm.lv.(flat) <- lv;
    tm.kw_up.(flat) <- tm.tech.Device.Tech.k_sat_p *. wl_up;
    tm.kw_down.(flat) <- tm.tech.Device.Tech.k_sat_n *. wl_down;
    tm.fall0.(flat) <- lv /. (tm.kw_down.(flat) *. tm.pow_down0);
    let rise0 = lv /. (tm.kw_up.(flat) *. tm.pow_up0) in
    scratch.(flat) <- stage_input a scratch flat +. Float.max rise0 tm.fall0.(flat)
  done;
  tm.d0.(i) <- scratch.(b + n_st - 1)

let build (a : Arena.t) ~tech ~temp_k ?po_load () =
  let vdd = tech.Device.Tech.vdd in
  let alpha = tech.Device.Tech.alpha in
  let vt_p = Device.Tech.vth_at tech `P ~temp_k in
  let vt_n = Device.Tech.vth_at tech `N ~temp_k in
  let pow0 od = if od <= 0.0 then 0.0 else Float.pow od alpha in
  let po_load = Option.value po_load ~default:(default_po_load tech) in
  let ns = a.Arena.n_stages in
  let tm =
    {
      a;
      tech;
      temp_k;
      vdd;
      alpha;
      vt_p;
      vt_n;
      pow_up0 = pow0 (vdd -. vt_p);
      pow_down0 = pow0 (vdd -. vt_n);
      po_load;
      wls = Array.map (fun (ci : Arena.cellinfo) -> strengths ci.Arena.cell) a.Arena.cells;
      lv = Array.make ns 0.0;
      kw_up = Array.make ns 0.0;
      kw_down = Array.make ns 0.0;
      fall0 = Array.make ns 0.0;
      d0 = Array.make a.Arena.n_nodes 0.0;
    }
  in
  let cell = arena_cell a in
  let scratch = Array.make ns 0.0 in
  for i = 0 to a.Arena.n_nodes - 1 do
    if a.Arena.op.(i) <> Arena.op_pi then
      write_gate tm ~scratch i ~cell:(cell i) ~wls:tm.wls.(a.Arena.cell_of.(i))
        ~load:(node_load a ~tech ~po_load ~cell i)
  done;
  tm

(* --- Result assembly (the boxed analyzer's folds, verbatim) --- *)

let[@inline] fanin_arrival (a : Arena.t) arrival i =
  let acc = ref 0.0 in
  for j = a.Arena.fanin_off.(i) to a.Arena.fanin_off.(i + 1) - 1 do
    acc := Float.max !acc arrival.(a.Arena.fanin.(j))
  done;
  !acc

(* The critical-output scan: the latest primary output, strict [>] so
   the first of equal outputs wins. [arrival] is annotated: left
   polymorphic, [>] would be the generic compare on boxed reads. *)
let critical_output (a : Arena.t) (arrival : float array) =
  let outputs = a.Arena.outputs in
  let best = ref outputs.(0) in
  for k = 1 to Array.length outputs - 1 do
    if arrival.(outputs.(k)) > arrival.(!best) then best := outputs.(k)
  done;
  !best

let result_of (a : Arena.t) ~arrival ~gate_delay =
  let critical_output = critical_output a arrival in
  let rec backtrack i acc =
    let b = a.Arena.fanin_off.(i) in
    let k = a.Arena.fanin_off.(i + 1) - b in
    if a.Arena.op.(i) = Arena.op_pi || k = 0 then i :: acc
    else begin
      let pred = ref a.Arena.fanin.(b) in
      for j = b to b + k - 1 do
        let f = a.Arena.fanin.(j) in
        if arrival.(f) > arrival.(!pred) then pred := f
      done;
      backtrack !pred (i :: acc)
    end
  in
  {
    arrival;
    gate_delay;
    max_delay = arrival.(critical_output);
    critical_path = backtrack critical_output [];
    critical_output;
  }

let[@inline] scaled scale i d = match scale with None -> d | Some s -> s.(i) *. d

let fresh_result ?scale tm =
  let a = tm.a in
  let n = a.Arena.n_nodes in
  let arrival = Array.make n 0.0 in
  let gate_delay = Array.make n 0.0 in
  for i = 0 to n - 1 do
    if a.Arena.op.(i) <> Arena.op_pi then begin
      let d = scaled scale i tm.d0.(i) in
      gate_delay.(i) <- d;
      arrival.(i) <- fanin_arrival a arrival i +. d
    end
  done;
  result_of a ~arrival ~gate_delay

(* Aged pass: [dvth] (and optionally [dvth_n]) are per-flat-stage
   threshold shifts. The [scratch] stage-arrival array may be shared
   across calls by one thread. *)
let[@inline] aged_delay_into tm ~dvth ~dvth_n ~scratch i =
  let a = tm.a in
  let b = a.Arena.stage_off.(i) in
  let n_st = a.Arena.stage_off.(i + 1) - b in
  for s = b to b + n_st - 1 do
    let rise = tm.lv.(s) /. drive tm.kw_up.(s) (tm.vdd -. (tm.vt_p +. dvth.(s))) tm.alpha in
    let fall =
      match dvth_n with
      | None -> tm.fall0.(s)
      | Some dn -> tm.lv.(s) /. drive tm.kw_down.(s) (tm.vdd -. (tm.vt_n +. dn.(s))) tm.alpha
    in
    scratch.(s) <- stage_input a scratch s +. Float.max rise fall
  done;
  scratch.(b + n_st - 1)

let aged_result tm ?scale ~dvth ?dvth_n () =
  let a = tm.a in
  let n = a.Arena.n_nodes in
  let arrival = Array.make n 0.0 in
  let gate_delay = Array.make n 0.0 in
  let scratch = Array.make a.Arena.n_stages 0.0 in
  for i = 0 to n - 1 do
    if a.Arena.op.(i) <> Arena.op_pi then begin
      let d = scaled scale i (aged_delay_into tm ~dvth ~dvth_n ~scratch i) in
      gate_delay.(i) <- d;
      arrival.(i) <- fanin_arrival a arrival i +. d
    end
  done;
  result_of a ~arrival ~gate_delay

(* --- Slope-resolved timing ---

   The worst-slope analysis above times every stage at the worse of its
   rise and fall delay — safe but conservative for NBTI, which only
   slows rising transitions. The slope-resolved pass propagates rise and
   fall arrival times separately through the inversion parity of every
   cell ([Cell.Cell_delay.delay_pair]), under [loads] and over the
   arena's fanin CSR. *)

type slope_result = {
  rise : float array;  (* rise arrival [s] per node *)
  fall : float array;
  max_delay_rf : float;  (* latest of any output's rise or fall *)
}

let analyze_slopes tech (t : Circuit.Netlist.t) ?po_load ?(stage_dvth_n = no_aging) ~temp_k
    ~stage_dvth () =
  let a = Arena.get t in
  let load = loads a ~tech ?po_load () in
  let n = a.Arena.n_nodes in
  let rise = Array.make n 0.0 and fall = Array.make n 0.0 in
  for i = 0 to n - 1 do
    if a.Arena.op.(i) <> Arena.op_pi then begin
      let in_rise = fanin_arrival a rise i and in_fall = fanin_arrival a fall i in
      let r, fl =
        Cell.Cell_delay.delay_pair tech (arena_cell a i) ~load:load.(i) ~temp_k
          ~stage_dvth:(fun stage -> stage_dvth ~gate:i ~stage)
          ~stage_dvth_n:(fun stage -> stage_dvth_n ~gate:i ~stage)
          ~input_arrival:(in_rise, in_fall) ()
      in
      rise.(i) <- r;
      fall.(i) <- fl
    end
  done;
  let max_delay_rf =
    Array.fold_left (fun acc o -> Float.max acc (Float.max rise.(o) fall.(o))) 0.0 a.Arena.outputs
  in
  { rise; fall; max_delay_rf }

(* Relative slowdown of the latest output slope. *)
let slope_degradation ~fresh ~aged = slowdown ~fresh:fresh.max_delay_rf ~aged:aged.max_delay_rf

(* --- Cache --- *)

let memo : t Parallel.Cache.t = Parallel.Cache.create ~capacity:16 ()

let get (a : Arena.t) ~tech ~temp_k ?po_load () =
  let buf = Buffer.create 256 in
  Memo.Fp.s buf a.Arena.digest;
  Memo.Fp.tech (Memo.Fp.sink buf) tech;
  Memo.Fp.f buf temp_k;
  (match po_load with None -> Memo.Fp.s buf "d" | Some l -> Memo.Fp.f buf l);
  fst
    (Parallel.Cache.find_or_add memo (Memo.Fp.digest buf) (fun () ->
         build a ~tech ~temp_k ?po_load ()))
