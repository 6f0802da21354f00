(* Incremental cone-limited re-analysis over the compiled arena.

   IVC co-optimization and NBTI-aware gate sizing evaluate many
   candidates that each differ from the previous one by a few PI flips
   or a single-gate tweak, yet every evaluation used to re-run logic,
   duty extraction, the R-D dvth chain and STA over the whole circuit.
   A session keeps the last run's arrays resident (values, per-gate
   leakage terms, per-stage duty pairs and threshold shifts, aged gate
   delays and arrivals) and an edit re-evaluates only the
   transitive-fanout cone of the change, in topological order, splicing
   results back into the resident state. (The MLV searches score
   leakage alone, 64 vectors per packed sweep: [Logic.sweep_leakage].)

   Cone ordering. Node ids ARE the topological order (an [Arena]
   invariant), so a binary min-heap of dirty node ids pops the cone in
   dependency order without any precomputed level structure: a
   processed node only ever pushes its fanouts, whose ids are strictly
   larger than the current heap minimum, so every node processed sees
   final fanin values and arrivals. Membership is deduplicated with
   epoch-stamped mark arrays — nothing is cleared between edits.

   Determinism / bit-identity. Two rules make every session read
   bit-identical to a from-scratch pass:
   - per-element recomputation runs the exact steps of the full pass
     ([Arena.eval_node], the [Duty] per-stage pick of each polarity,
     [Timing.aged_delay_into]), and a node's
     outputs propagate to its fanouts only when the new bits differ
     from the resident bits — unchanged bits leave the downstream
     state untouched and therefore identical;
   - order-dependent float *folds* (the leakage sum, the max-dvth fold,
     the critical-output scan) are never updated in place: the per-term
     arrays are resident and the fold re-runs over them in the full
     pass's order after each edit. Re-folding is O(n) cheap float ops;
     the per-node work (gate eval, shift picks, stage recursions) stays
     cone-limited.

   Edits whose support is too large (a nearly-uncorrelated vector) fall
   back to a full recompute into the same resident arrays — exactly the
   code path a fresh session runs — so the state after any edit
   sequence is a pure function of the last input. That is what the
   edit->edit->revert digest tests pin down.

   Ownership: a [ctx] is immutable and shareable across domains; a
   [session] is single-owner mutable state (one per worker chunk in the
   parallel searches — never shared between domains). *)

let bits_eq a b = Int64.bits_of_float a = Int64.bits_of_float b

(* --- Min-heap of node ids (pop ascending = topological order) --- *)

module Heap = struct
  type t = { mutable data : int array; mutable size : int }

  let create n = { data = Array.make (max 16 n) 0; size = 0 }

  let push h x =
    if h.size = Array.length h.data then begin
      let d = Array.make (2 * h.size) 0 in
      Array.blit h.data 0 d 0 h.size;
      h.data <- d
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.data.(!i) <- x;
    while !i > 0 && h.data.((!i - 1) / 2) > h.data.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue = ref (h.size > 1) in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.size && h.data.(l) < h.data.(!m) then m := l;
      if r < h.size && h.data.(r) < h.data.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let tmp = h.data.(!m) in
        h.data.(!m) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := !m
      end
    done;
    top
end

(* --- Per-session statistics (the incr.* trace attributes) --- *)

type stats = { mutable edits : int; mutable visited : int; mutable fallbacks : int }

let fresh_stats () = { edits = 0; visited = 0; fallbacks = 0 }

(* Average cone size per edit, and the fraction of per-node work an
   edit reused from the resident state (1.0 = nothing revisited). *)
let cone_size st = if st.edits = 0 then 0.0 else float_of_int st.visited /. float_of_int st.edits

let reuse_frac st ~n_nodes =
  if st.edits = 0 || n_nodes = 0 then 1.0
  else 1.0 -. (cone_size st /. float_of_int n_nodes)

let stats_args st ~n_nodes =
  [
    ("incr.edits", Obs.Fields.Int st.edits);
    ("incr.fallbacks", Obs.Fields.Int st.fallbacks);
    ("incr.cone_size", Obs.Fields.Float (cone_size st));
    ("incr.reuse_frac", Obs.Fields.Float (reuse_frac st ~n_nodes));
  ]

let emit_stats name st ~n_nodes =
  if Obs.Trace.enabled () then Obs.Trace.instant ~cat:"incr" ~args:(stats_args st ~n_nodes) name

(* --- Shared cone scaffolding --- *)

type cone = {
  heap : Heap.t;
  hmark : int array;  (* epoch when the node entered the heap this edit *)
  vmark : int array;  (* epoch when the node was marked value-dirty *)
  mutable epoch : int;
}

let make_cone n = { heap = Heap.create 64; hmark = Array.make n 0; vmark = Array.make n 0; epoch = 0 }

(* Incremental edits pay O(cone); a vector differing in many PIs is
   cheaper as one full sweep. Both sides are bit-identical, so the
   threshold only trades time, never results. *)
let fallback_threshold n_pi = max 4 (n_pi / 8)

let count_flips ~inputs v =
  let nflips = ref 0 in
  for k = 0 to Array.length inputs - 1 do
    if v.(k) <> inputs.(k) then incr nflips
  done;
  !nflips

(* ================================================================== *)
(* Full-analysis sessions: logic + leakage + duty/dvth + aged STA.     *)
(* One session answers the IVC co-optimization query — leakage,        *)
(* degradation, aged delay for a standby vector — from one PI edit.    *)
(* ================================================================== *)

module Analysis = struct
  type ctx = {
    a : Arena.t;
    currents : float array array;
    sh : Duty.shifts;
    sh_n : Duty.shifts option;  (* NMOS (PBTI) shifts, when aged *)
    tm : Timing.t;
    fresh : Timing.result;
  }

  (* [shifts] (and, under PBTI, [shifts_n], on the same arena) are the
     pairs [Circuit_aging.analyze] reads for the same config and signal
     probabilities. *)
  let ctx ~currents ~(shifts : Duty.shifts) ?shifts_n ?po_load () =
    let a = shifts.Duty.duty.Duty.a in
    let m = shifts.Duty.model in
    let tm = Timing.get a ~tech:m.Duty.tech ~temp_k:m.Duty.schedule.Nbti.Schedule.t_ref ?po_load () in
    { a; currents; sh = shifts; sh_n = shifts_n; tm; fresh = Timing.fresh_result tm }

  let fresh_result c = c.fresh

  type session = {
    c : ctx;
    inputs : bool array;
    vals : int array;
    idxs : int array;
    terms : float array;  (* per node *)
    dvth : float array;  (* per flat stage *)
    dvth_n : float array option;  (* per flat stage, with [sh_n] *)
    gd : float array;  (* per node: aged gate delay *)
    arr : float array;  (* per node: aged arrival *)
    stage_scratch : float array;  (* per flat stage, [Timing.aged_delay_into] scratch *)
    cone : cone;
    mutable leakage : float;
    mutable aged_max : float;
    mutable max_dvth : float;
    mutable dvth_dirty : bool;  (* some dvth bits changed since the last max fold *)
    st : stats;
  }

  let fold_leakage s =
    let a = s.c.a in
    let acc = ref 0.0 in
    for i = 0 to a.Arena.n_nodes - 1 do
      if a.Arena.op.(i) <> Arena.op_pi then acc := !acc +. s.terms.(i)
    done;
    s.leakage <- !acc

  let fold_aged s = s.aged_max <- s.arr.(Timing.critical_output s.c.a s.arr)

  (* The shape builder's fold: Float.max over flat stages of gates in
     node order, from 0.0 — see [Aging.build]. *)
  let fold_max_dvth s =
    if s.dvth_dirty then begin
      let a = s.c.a in
      let acc = ref 0.0 in
      for i = 0 to a.Arena.n_nodes - 1 do
        if a.Arena.op.(i) <> Arena.op_pi then
          for flat = a.Arena.stage_off.(i) to a.Arena.stage_off.(i + 1) - 1 do
            acc := Float.max !acc s.dvth.(flat)
          done
      done;
      s.max_dvth <- !acc;
      s.dvth_dirty <- false
    end

  (* Re-pick gate [i]'s per-stage shifts of one polarity into [dvth] by
     the stage stress bits of fanin index [idx] (its standby vector):
     the per-gate step of [Duty.pick]. Returns whether any bits
     changed. *)
  let pick_gate (sh : Duty.shifts) dvth ~idx i =
    let a = sh.Duty.duty.Duty.a in
    let mask = Duty.gate_mask sh i ~idx in
    let sb = a.Arena.stage_off.(i) in
    let changed = ref false in
    for flat = sb to a.Arena.stage_off.(i + 1) - 1 do
      let d = Duty.stage_shift sh ~mask ~s:(flat - sb) flat in
      if not (bits_eq d dvth.(flat)) then begin
        dvth.(flat) <- d;
        changed := true
      end
    done;
    !changed

  (* Both polarities from the same resident fanin index; only PMOS
     changes dirty the max-dvth fold. *)
  let recompute_gate_dvth s i =
    let idx = s.idxs.(i) in
    let changed = pick_gate s.c.sh s.dvth ~idx i in
    if changed then s.dvth_dirty <- true;
    match (s.c.sh_n, s.dvth_n) with
    | Some sh_n, Some dvth_n -> pick_gate sh_n dvth_n ~idx i || changed
    | _ -> changed

  let recompute_all s v =
    if v != s.inputs then Array.blit v 0 s.inputs 0 (Array.length s.inputs);
    let a = s.c.a in
    Arena.eval_bool a ~inputs:s.inputs ~vals:s.vals ~idxs:s.idxs;
    s.dvth_dirty <- true;
    for i = 0 to a.Arena.n_nodes - 1 do
      if a.Arena.op.(i) <> Arena.op_pi then begin
        s.terms.(i) <- s.c.currents.(i).(s.idxs.(i));
        ignore (recompute_gate_dvth s i);
        let d =
          Timing.aged_delay_into s.c.tm ~dvth:s.dvth ~dvth_n:s.dvth_n ~scratch:s.stage_scratch i
        in
        s.gd.(i) <- d;
        s.arr.(i) <- Timing.fanin_arrival a s.arr i +. d
      end
    done;
    fold_leakage s;
    fold_aged s;
    s.dvth_dirty <- true;
    fold_max_dvth s

  let session c =
    let a = c.a in
    let n = a.Arena.n_nodes in
    let ns = a.Arena.n_stages in
    let s =
      {
        c;
        inputs = Array.make (Array.length a.Arena.pis) false;
        vals = Array.make n 0;
        idxs = Array.make n 0;
        terms = Array.make n 0.0;
        dvth = Array.make ns 0.0;
        dvth_n = Option.map (fun _ -> Array.make ns 0.0) c.sh_n;
        gd = Array.make n 0.0;
        arr = Array.make n 0.0;
        stage_scratch = Array.make ns 0.0;
        cone = make_cone n;
        leakage = 0.0;
        aged_max = 0.0;
        max_dvth = 0.0;
        dvth_dirty = true;
        st = fresh_stats ();
      }
    in
    recompute_all s s.inputs;
    s

  let propagate s =
    let a = s.c.a in
    let co = s.cone in
    let e = co.epoch in
    while co.heap.Heap.size > 0 do
      let i = Heap.pop co.heap in
      s.st.visited <- s.st.visited + 1;
      let delay_dirty = ref false in
      if co.vmark.(i) = e then begin
        let old = s.vals.(i) in
        Arena.eval_node a ~vals:s.vals ~idxs:s.idxs i;
        s.terms.(i) <- s.c.currents.(i).(s.idxs.(i));
        (* The shift picks read the fanin values (the gate's standby
           vector), so any fanin value change can move this gate's dvth
           even if its own output value is unchanged. *)
        if recompute_gate_dvth s i then delay_dirty := true;
        if s.vals.(i) <> old then
          for j = a.Arena.fanout_off.(i) to a.Arena.fanout_off.(i + 1) - 1 do
            let g = a.Arena.fanout.(j) in
            co.vmark.(g) <- e;
            if co.hmark.(g) <> e then begin
              co.hmark.(g) <- e;
              Heap.push co.heap g
            end
          done
      end;
      if !delay_dirty then
        s.gd.(i) <-
          Timing.aged_delay_into s.c.tm ~dvth:s.dvth ~dvth_n:s.dvth_n ~scratch:s.stage_scratch i;
      let na = Timing.fanin_arrival a s.arr i +. s.gd.(i) in
      if not (bits_eq na s.arr.(i)) then begin
        s.arr.(i) <- na;
        for j = a.Arena.fanout_off.(i) to a.Arena.fanout_off.(i + 1) - 1 do
          let g = a.Arena.fanout.(j) in
          if co.hmark.(g) <> e then begin
            co.hmark.(g) <- e;
            Heap.push co.heap g
          end
        done
      end
    done

  let set_vector s v =
    let a = s.c.a in
    let pis = a.Arena.pis in
    if Array.length v <> Array.length pis then
      invalid_arg "Incremental.Analysis.set_vector: vector length";
    s.st.edits <- s.st.edits + 1;
    let nflips = count_flips ~inputs:s.inputs v in
    if nflips = 0 then ()
    else if nflips > fallback_threshold (Array.length pis) then begin
      s.st.fallbacks <- s.st.fallbacks + 1;
      s.st.visited <- s.st.visited + a.Arena.n_nodes;
      recompute_all s v
    end
    else begin
      let co = s.cone in
      co.epoch <- co.epoch + 1;
      let e = co.epoch in
      for k = 0 to Array.length pis - 1 do
        if v.(k) <> s.inputs.(k) then begin
          s.inputs.(k) <- v.(k);
          let p = pis.(k) in
          s.vals.(p) <- (if v.(k) then 1 else 0);
          for j = a.Arena.fanout_off.(p) to a.Arena.fanout_off.(p + 1) - 1 do
            let g = a.Arena.fanout.(j) in
            co.vmark.(g) <- e;
            if co.hmark.(g) <> e then begin
              co.hmark.(g) <- e;
              Heap.push co.heap g
            end
          done
        end
      done;
      propagate s;
      fold_leakage s;
      fold_aged s;
      fold_max_dvth s
    end

  let flip_pi s k =
    let v = Array.copy s.inputs in
    v.(k) <- not v.(k);
    set_vector s v

  (* What-if duty override on one gate stage (the probe the gate-merging
     pass needs): evaluates the R-D shift at the forced duty pair and
     propagates the arrival cone. Valid until a later edit re-dirties
     this gate's values, which re-picks its shifts from the resident
     standby vector again. *)
  let set_gate_duty s i ~stage ~active ~standby =
    let a = s.c.a in
    if a.Arena.op.(i) = Arena.op_pi then invalid_arg "Incremental.Analysis.set_gate_duty: not a gate";
    let flat = a.Arena.stage_off.(i) + stage in
    if flat >= a.Arena.stage_off.(i + 1) then invalid_arg "Incremental.Analysis.set_gate_duty: stage";
    s.st.edits <- s.st.edits + 1;
    let d = Duty.dvth s.c.sh.Duty.model ~active ~standby in
    if not (bits_eq d s.dvth.(flat)) then begin
      s.dvth.(flat) <- d;
      s.dvth_dirty <- true
    end;
    s.gd.(i) <-
      Timing.aged_delay_into s.c.tm ~dvth:s.dvth ~dvth_n:s.dvth_n ~scratch:s.stage_scratch i;
    let co = s.cone in
    co.epoch <- co.epoch + 1;
    let e = co.epoch in
    co.hmark.(i) <- e;
    Heap.push co.heap i;
    propagate s;
    fold_aged s;
    fold_max_dvth s

  let leakage s = s.leakage
  let aged_delay s = s.aged_max
  let max_dvth s = s.max_dvth

  let degradation s = Timing.slowdown ~fresh:s.c.fresh.Timing.max_delay ~aged:s.aged_max

  (* Materialized results on copies of the resident arrays, for oracle
     comparison tests; the boxed assembly fold (critical output and
     backtrack) is [Timing.result_of]. *)
  let aged_result s =
    Timing.result_of s.c.a ~arrival:(Array.copy s.arr) ~gate_delay:(Array.copy s.gd)

  let stats s = s.st
  let n_nodes s = s.c.a.Arena.n_nodes

  let digest s =
    let buf = Buffer.create 4096 in
    Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) s.inputs;
    Array.iter (fun v -> Buffer.add_char buf (Char.chr (v land 0xff))) s.vals;
    let f x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
    Array.iter f s.terms;
    Array.iter f s.dvth;
    Option.iter (Array.iter f) s.dvth_n;
    Array.iter f s.gd;
    Array.iter f s.arr;
    f s.leakage;
    f s.aged_max;
    f s.max_dvth;
    Digest.to_hex (Digest.string (Buffer.contents buf))
end

(* ================================================================== *)
(* Sizing sessions: frozen duties, editable per-gate drives/cells.     *)
(* The gate-sizing loop upsizes a handful of critical-path gates per   *)
(* iteration; only those gates' rows (and their fanin drivers', whose  *)
(* loads moved) of a private [Timing.build] are rewritten, then the    *)
(* arrival cone re-propagates.                                         *)
(* ================================================================== *)

module Sizing = struct
  type session = {
    tm : Timing.t;  (* a private build: its rows track [cells] *)
    dvth : float array;  (* per flat stage, frozen (duties survive scaling) *)
    base_cells : Cell.Stdcell.t array;  (* per node; the unscaled cell *)
    cells : Cell.Stdcell.t array;  (* per node; the current cell *)
    wls : (float * float) array array;  (* per node: [cells]' stage strengths *)
    drives : float array;
    gd : float array;
    arr : float array;
    stage_scratch : float array;
    cone : cone;
    mutable aged_max : float;
    st : stats;
  }

  (* [dvth] is the frozen per-flat-stage PMOS shift (duty pairs survive
     scaling: the pin structure is unchanged — see Gate_sizing). *)
  let session (a : Arena.t) ~tech ~temp_k ?po_load ~dvth () =
    let tm = Timing.build a ~tech ~temp_k ?po_load () in
    let aged = Timing.aged_result tm ~dvth () in
    let n = a.Arena.n_nodes in
    let base_cells =
      Array.init n (fun i ->
          if a.Arena.op.(i) = Arena.op_pi then Cell.Stdcell.inv
          else a.Arena.cells.(a.Arena.cell_of.(i)).Arena.cell)
    in
    {
      tm;
      dvth = Array.copy dvth;
      base_cells;
      cells = Array.copy base_cells;
      wls =
        Array.init n (fun i ->
            if a.Arena.op.(i) = Arena.op_pi then [||] else tm.Timing.wls.(a.Arena.cell_of.(i)));
      drives = Array.make n 1.0;
      gd = aged.Timing.gate_delay;
      arr = aged.Timing.arrival;
      stage_scratch = Array.make a.Arena.n_stages 0.0;
      cone = make_cone n;
      aged_max = aged.Timing.max_delay;
      st = fresh_stats ();
    }

  (* Arrival-only cone propagation from the given seed gates. *)
  let propagate_arrivals s seeds =
    let a = s.tm.Timing.a in
    let co = s.cone in
    co.epoch <- co.epoch + 1;
    let e = co.epoch in
    List.iter
      (fun i ->
        if co.hmark.(i) <> e then begin
          co.hmark.(i) <- e;
          Heap.push co.heap i
        end)
      seeds;
    while co.heap.Heap.size > 0 do
      let i = Heap.pop co.heap in
      s.st.visited <- s.st.visited + 1;
      let na = Timing.fanin_arrival a s.arr i +. s.gd.(i) in
      if not (bits_eq na s.arr.(i)) then begin
        s.arr.(i) <- na;
        for j = a.Arena.fanout_off.(i) to a.Arena.fanout_off.(i + 1) - 1 do
          let g = a.Arena.fanout.(j) in
          if co.hmark.(g) <> e then begin
            co.hmark.(g) <- e;
            Heap.push co.heap g
          end
        done
      end
    done;
    s.aged_max <- s.arr.(Timing.critical_output a s.arr)

  (* Gate [i] now has [cell]: its own load (drain cap) and its gate
     fanins' loads (input caps) move, so those gates' rows are
     rewritten and their aged delays re-timed; each gate whose delay
     bits changed seeds the arrival cone. *)
  let recell s i cell =
    let a = s.tm.Timing.a in
    s.cells.(i) <- cell;
    s.wls.(i) <- Timing.strengths cell;
    let affected = ref [ i ] in
    for j = a.Arena.fanin_off.(i) to a.Arena.fanin_off.(i + 1) - 1 do
      let f = a.Arena.fanin.(j) in
      if a.Arena.op.(f) <> Arena.op_pi && not (List.mem f !affected) then affected := f :: !affected
    done;
    let cell_of g = s.cells.(g) in
    let load g =
      Timing.node_load a ~tech:s.tm.Timing.tech ~po_load:s.tm.Timing.po_load ~cell:cell_of g
    in
    let seeds =
      List.filter
        (fun g ->
          Timing.write_gate s.tm ~scratch:s.stage_scratch g ~cell:s.cells.(g) ~wls:s.wls.(g)
            ~load:(load g);
          let d =
            Timing.aged_delay_into s.tm ~dvth:s.dvth ~dvth_n:None ~scratch:s.stage_scratch g
          in
          let moved = not (bits_eq d s.gd.(g)) in
          s.gd.(g) <- d;
          moved)
        !affected
    in
    propagate_arrivals s seeds

  let set_drive s i drive =
    if s.tm.Timing.a.Arena.op.(i) = Arena.op_pi then
      invalid_arg "Incremental.Sizing.set_drive: not a gate";
    if drive <= 0.0 then invalid_arg "Incremental.Sizing.set_drive: drive must be positive";
    s.st.edits <- s.st.edits + 1;
    s.drives.(i) <- drive;
    (* [Gate_sizing.materialize] keeps the original cell at drive 1.0
       and scales the *base* cell once otherwise — mirror it exactly. *)
    recell s i (if drive = 1.0 then s.base_cells.(i) else Cell.Stdcell.scaled s.base_cells.(i) ~drive)

  (* Swap gate [i]'s cell. The arena's stage/dep structure is fixed, so
     the replacement must match the old cell's pin count and stage DAG;
     this is a timing-only session, so the caller is responsible for
     the swap being function-compatible if it also tracks logic. *)
  let set_cell s i cell =
    if s.tm.Timing.a.Arena.op.(i) = Arena.op_pi then
      invalid_arg "Incremental.Sizing.set_cell: not a gate";
    let old = s.base_cells.(i) in
    if cell.Cell.Stdcell.n_inputs <> old.Cell.Stdcell.n_inputs then
      invalid_arg "Incremental.Sizing.set_cell: pin count mismatch";
    if Array.length cell.Cell.Stdcell.stages <> Array.length old.Cell.Stdcell.stages then
      invalid_arg "Incremental.Sizing.set_cell: stage count mismatch";
    Array.iteri
      (fun st (stage : Cell.Stdcell.stage) ->
        if Cell.Cell_delay.stage_deps stage <> Cell.Cell_delay.stage_deps old.Cell.Stdcell.stages.(st)
        then invalid_arg "Incremental.Sizing.set_cell: stage dependency mismatch")
      cell.Cell.Stdcell.stages;
    s.st.edits <- s.st.edits + 1;
    s.base_cells.(i) <- cell;
    s.drives.(i) <- 1.0;
    recell s i cell

  let aged_max s = s.aged_max
  let drives s = s.drives

  (* The fresh timing of the session's current cells. *)
  let fresh_result s = Timing.fresh_result s.tm

  let aged_result s =
    Timing.result_of s.tm.Timing.a ~arrival:(Array.copy s.arr) ~gate_delay:(Array.copy s.gd)

  let stats s = s.st
  let n_nodes s = s.tm.Timing.a.Arena.n_nodes
end
