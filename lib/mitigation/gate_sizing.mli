(** NBTI-aware gate sizing (Paul et al. [22], on the temperature-aware
    model).

    Instead of guard-banding the whole design, upsize the gates on the
    aged critical paths until the end-of-life delay meets a target. An
    upsized gate drives its load faster in proportion to its drive, but
    presents proportionally more input capacitance to its fanins — both
    effects flow through the load model, so the loop re-times after every
    change and naturally stops when upsizing migrates the critical path.

    NBTI stress conditions depend only on the cell's pin structure, which
    scaling preserves, so one duty extraction serves every iteration. *)

type result = {
  drives : float array;  (** final per-gate drive factor (1.0 = untouched) *)
  sized : Circuit.Netlist.t;  (** netlist with the scaled cells materialized *)
  fresh_before : float;  (** [s] *)
  aged_before : float;
  fresh_after : float;
  aged_after : float;
  target : float;  (** the aged-delay target [s] *)
  met : bool;  (** aged_after <= target *)
  area_overhead : float;  (** added device W/L as a fraction of the original *)
  iterations : int;
}

val materialize : Circuit.Netlist.t -> drives:float array -> Circuit.Netlist.t
(** The netlist with each gate's cell scaled by its per-node drive
    factor (1.0 leaves the node untouched). *)

val area : Circuit.Netlist.t -> float
(** Total device W/L of the netlist's gates. *)

val grow_path :
  Circuit.Netlist.t ->
  drives:float array ->
  critical_path:int list ->
  step:float ->
  max_drive:float ->
  int list
(** One sizing step: multiplies the drive of every gate on
    [critical_path] below [max_drive] by [step] (saturating at
    [max_drive]) and returns those gates, in path order; empty when the
    whole path is saturated. *)

val optimize :
  ?budget:Parallel.Budget.t ->
  Aging.Circuit_aging.config ->
  Circuit.Netlist.t ->
  node_sp:float array ->
  standby:Aging.Circuit_aging.standby_state ->
  ?margin:float ->
  ?step:float ->
  ?max_drive:float ->
  ?max_iterations:int ->
  unit ->
  result
(** Upsizes until the aged delay is within [margin] of the {e fresh}
    critical delay (default 0.01: the aged circuit may be at most 1 %
    slower than the original fresh one). Each iteration multiplies the
    drive of every aged-critical-path gate by [step] (default 1.2),
    saturating at [max_drive] (default 4.0); stops on success, saturation
    or [max_iterations] (default 40). [budget] (default unlimited) is
    polled at every iteration boundary.

    Each iteration re-times only the upsized gates' affected cone
    through a resident {!Compiled.Incremental.Sizing} session instead of
    re-running a full STA on a re-materialized netlist; results are
    bit-identical to the full pass. *)
