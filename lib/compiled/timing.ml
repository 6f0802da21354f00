(* Compiled STA, the one static timing engine: the cell delay model of
   [Cell.Cell_delay] and a forward arrival pass evaluated over flat
   per-stage constant arrays.

   Everything that does not depend on a threshold shift is precomputed
   at compile time, in forms that preserve the boxed float associativity
   exactly:
   - [lv]    = stage_load *. vdd            (boxed: (load *. vdd) /. drive)
   - [kw_*]  = k_sat *. wl                  (boxed: (k_sat *. wl) *. pow od alpha)
   - [rise0]/[fall0]: the dvth = 0 stage delays
   - [d0]: the whole fresh cell delay per gate (intra-stage max-plus
     over the stage dependency DAG with dvth = 0)
   The aged stage delay recomputes only [lv /. (kw *. pow od alpha)]
   with [od = vdd -. (vth_base +. dvth)] — the boxed operand order —
   so fresh and aged passes are bit-identical to the boxed reference
   analyzer the tests keep, including the Inf arrivals a non-conducting
   stage would produce. An optional per-node [scale] multiplies each
   gate's delay as [scale.(i) *. delay], the boxed [gate_scale] product
   (dual-V_th assignment slows its high-threshold gates this way).

   Results are assembled into [Sta.Timing.result] with the boxed
   critical-output fold (strict [>], first-wins on ties) and the same
   backtrack, so critical paths match node for node. *)

type t = {
  a : Arena.t;
  tech : Device.Tech.t;
  temp_k : float;
  po_load : float option;
  vdd : float;
  alpha : float;
  vt_p : float;  (* Tech.vth_at `P at temp_k *)
  vt_n : float;
  lv : float array;  (* per flat stage *)
  kw_up : float array;
  kw_down : float array;
  rise0 : float array;
  fall0 : float array;
  d0 : float array;  (* per node; 0 for primary inputs *)
}

let[@inline] drive kw od alpha = if od <= 0.0 then 0.0 else kw *. Float.pow od alpha

let build (a : Arena.t) ~tech ~temp_k ?po_load () =
  let node_load = Sta.Timing.loads tech a.Arena.net ?po_load () in
  let vdd = tech.Device.Tech.vdd in
  let alpha = tech.Device.Tech.alpha in
  let vt_p = Device.Tech.vth_at tech `P ~temp_k in
  let vt_n = Device.Tech.vth_at tech `N ~temp_k in
  let od_up0 = vdd -. vt_p and od_down0 = vdd -. vt_n in
  let pow_up0 = Float.pow od_up0 alpha and pow_down0 = Float.pow od_down0 alpha in
  (* Worst-case conduction strengths per unique cell stage. *)
  let wls =
    Array.map
      (fun (ci : Arena.cellinfo) ->
        Array.map
          (fun (st : Cell.Stdcell.stage) ->
            ( Cell.Cell_delay.worst_strength st.Cell.Stdcell.pull_up
                ~on_polarity:Device.Mosfet.P,
              Cell.Cell_delay.worst_strength st.Cell.Stdcell.pull_down
                ~on_polarity:Device.Mosfet.N ))
          ci.Arena.cell.Cell.Stdcell.stages)
      a.Arena.cells
  in
  let ns = a.Arena.n_stages in
  let lv = Array.make ns 0.0 in
  let kw_up = Array.make ns 0.0 in
  let kw_down = Array.make ns 0.0 in
  let rise0 = Array.make ns 0.0 in
  let fall0 = Array.make ns 0.0 in
  let d0 = Array.make a.Arena.n_nodes 0.0 in
  let st_arr = Array.make ns 0.0 in
  for i = 0 to a.Arena.n_nodes - 1 do
    if a.Arena.op.(i) <> Arena.op_pi then begin
      let ci = a.Arena.cells.(a.Arena.cell_of.(i)) in
      let cell = ci.Arena.cell in
      let n_st = Array.length cell.Cell.Stdcell.stages in
      for s = 0 to n_st - 1 do
        let flat = a.Arena.stage_off.(i) + s in
        let sl = Cell.Cell_delay.stage_load tech cell ~stage:s ~external_load:node_load.(i) in
        let wl_up, wl_down = wls.(a.Arena.cell_of.(i)).(s) in
        lv.(flat) <- sl *. vdd;
        kw_up.(flat) <- tech.Device.Tech.k_sat_p *. wl_up;
        kw_down.(flat) <- tech.Device.Tech.k_sat_n *. wl_down;
        rise0.(flat) <-
          lv.(flat) /. (if od_up0 <= 0.0 then 0.0 else kw_up.(flat) *. pow_up0);
        fall0.(flat) <-
          lv.(flat) /. (if od_down0 <= 0.0 then 0.0 else kw_down.(flat) *. pow_down0);
        let input =
          let acc = ref 0.0 in
          for d = a.Arena.dep_off.(flat) to a.Arena.dep_off.(flat + 1) - 1 do
            acc := Float.max !acc st_arr.(a.Arena.deps.(d))
          done;
          !acc
        in
        st_arr.(flat) <- input +. Float.max rise0.(flat) fall0.(flat)
      done;
      d0.(i) <- st_arr.(a.Arena.stage_off.(i) + n_st - 1)
    end
  done;
  { a; tech; temp_k; po_load; vdd; alpha; vt_p; vt_n; lv; kw_up; kw_down; rise0; fall0; d0 }

(* --- Result assembly (the boxed analyzer's folds, verbatim) --- *)

let[@inline] fanin_arrival (a : Arena.t) arrival i =
  let acc = ref 0.0 in
  for j = a.Arena.fanin_off.(i) to a.Arena.fanin_off.(i + 1) - 1 do
    acc := Float.max !acc arrival.(a.Arena.fanin.(j))
  done;
  !acc

let result_of (a : Arena.t) ~arrival ~gate_delay =
  let outputs = a.Arena.outputs in
  let critical_output = ref outputs.(0) in
  Array.iter
    (fun o -> if arrival.(o) > arrival.(!critical_output) then critical_output := o)
    outputs;
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
    Sta.Timing.arrival;
    gate_delay;
    max_delay = arrival.(!critical_output);
    critical_path = backtrack !critical_output [];
    critical_output = !critical_output;
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
  let alpha = tm.alpha in
  let b = a.Arena.stage_off.(i) in
  let n_st = a.Arena.stage_off.(i + 1) - b in
  for s = b to b + n_st - 1 do
    let rise = tm.lv.(s) /. drive tm.kw_up.(s) (tm.vdd -. (tm.vt_p +. dvth.(s))) alpha in
    let fall =
      match dvth_n with
      | None -> tm.fall0.(s)
      | Some dn -> tm.lv.(s) /. drive tm.kw_down.(s) (tm.vdd -. (tm.vt_n +. dn.(s))) alpha
    in
    let input =
      let acc = ref 0.0 in
      for d = a.Arena.dep_off.(s) to a.Arena.dep_off.(s + 1) - 1 do
        acc := Float.max !acc scratch.(a.Arena.deps.(d))
      done;
      !acc
    in
    scratch.(s) <- input +. Float.max rise fall
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

(* --- Cache --- *)

let memo : t Memo.t = Memo.create ~capacity:16 ()

let get (a : Arena.t) ~tech ~temp_k ?po_load () =
  let buf = Buffer.create 256 in
  Memo.Fp.s buf a.Arena.digest;
  Memo.Fp.tech buf tech;
  Memo.Fp.f buf temp_k;
  (match po_load with None -> Memo.Fp.s buf "d" | Some l -> Memo.Fp.f buf l);
  Memo.find_or_add memo (Memo.Fp.digest buf) (fun () -> build a ~tech ~temp_k ?po_load ())
