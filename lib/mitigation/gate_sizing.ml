type result = {
  drives : float array;
  sized : Circuit.Netlist.t;
  fresh_before : float;
  aged_before : float;
  fresh_after : float;
  aged_after : float;
  target : float;
  met : bool;
  area_overhead : float;
  iterations : int;
}

let materialize (t : Circuit.Netlist.t) ~drives =
  let nodes =
    Array.mapi
      (fun i node ->
        match node with
        | Circuit.Netlist.Primary_input _ -> node
        | Circuit.Netlist.Gate g ->
          if drives.(i) = 1.0 then node
          else Circuit.Netlist.Gate { g with cell = Cell.Stdcell.scaled g.cell ~drive:drives.(i) })
      t.Circuit.Netlist.nodes
  in
  Circuit.Netlist.create ~name:t.Circuit.Netlist.name nodes ~outputs:t.Circuit.Netlist.outputs

let area (t : Circuit.Netlist.t) =
  Array.fold_left
    (fun acc node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> acc
      | Circuit.Netlist.Gate { cell; _ } -> acc +. Cell.Stdcell.area cell)
    0.0 t.Circuit.Netlist.nodes

(* One upsizing step: multiply the drive of every unsaturated gate on
   the aged critical path by [step]. Returns the gates that actually
   grew (empty = the whole path is saturated, stop). *)
let grow_path (t : Circuit.Netlist.t) ~drives ~critical_path ~step ~max_drive =
  let grown = ref [] in
  List.iter
    (fun i ->
      match t.Circuit.Netlist.nodes.(i) with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate _ ->
        if drives.(i) < max_drive then begin
          drives.(i) <- Float.min max_drive (drives.(i) *. step);
          grown := i :: !grown
        end)
    critical_path;
  List.rev !grown

(* Each iteration upsizes a handful of critical-path gates; a
   [Compiled.Incremental.Sizing] session keeps a private timing table and
   the aged arrivals resident, and a drive edit rewrites only the touched
   gates' rows (plus their fanin drivers', whose loads moved) and
   re-times the downstream arrival cone. The final netlist is
   materialized once; its fresh delay is the session's own fresh pass.
   Delays are bit-identical to a full STA of every materialized netlist
   (the reference test_incremental compares against), so the sizing
   trajectory — critical paths, drive vector, iteration count — is the
   full-pass one. *)
let optimize ?(budget = Parallel.Budget.unlimited) config (t : Circuit.Netlist.t) ~node_sp
    ~standby ?(margin = 0.01) ?(step = 1.2) ?(max_drive = 4.0) ?(max_iterations = 40) () =
  if margin < 0.0 then invalid_arg "Gate_sizing.optimize: negative margin";
  if step <= 1.0 then invalid_arg "Gate_sizing.optimize: step must exceed 1";
  let tech = config.Aging.Circuit_aging.tech in
  let temp_k = config.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
  (* Duty pairs survive scaling (pin structure is unchanged), so the
     shifts are picked once and stay frozen in the session. *)
  let stage_dvth = Aging.Circuit_aging.stage_dvth_map config t ~node_sp ~standby in
  let a = Compiled.Arena.get t in
  let session =
    Compiled.Incremental.Sizing.session a ~tech ~temp_k
      ~dvth:(Compiled.Arena.stage_values a stage_dvth) ()
  in
  let fresh0 = Compiled.Incremental.Sizing.fresh_result session in
  let target = fresh0.Compiled.Timing.max_delay *. (1.0 +. margin) in
  let aged_before = Compiled.Incremental.Sizing.aged_max session in
  let n = Circuit.Netlist.n_nodes t in
  let drives = Array.make n 1.0 in
  let rec loop iterations =
    if Compiled.Incremental.Sizing.aged_max session <= target || iterations >= max_iterations
    then iterations
    else begin
      Parallel.Budget.check budget;
      let aged = Compiled.Incremental.Sizing.aged_result session in
      let grown =
        grow_path t ~drives ~critical_path:aged.Compiled.Timing.critical_path ~step ~max_drive
      in
      if grown = [] then iterations
      else begin
        List.iter (fun i -> Compiled.Incremental.Sizing.set_drive session i drives.(i)) grown;
        loop (iterations + 1)
      end
    end
  in
  let iterations = loop 0 in
  let aged_after = Compiled.Incremental.Sizing.aged_max session in
  Compiled.Incremental.emit_stats "gate_sizing"
    (Compiled.Incremental.Sizing.stats session)
    ~n_nodes:(Compiled.Incremental.Sizing.n_nodes session);
  let sized = materialize t ~drives in
  {
    drives;
    sized;
    fresh_before = fresh0.Compiled.Timing.max_delay;
    aged_before;
    fresh_after = (Compiled.Incremental.Sizing.fresh_result session).Compiled.Timing.max_delay;
    aged_after;
    target;
    met = aged_after <= target;
    area_overhead = (area sized -. area t) /. area t;
    iterations;
  }
