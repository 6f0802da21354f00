(** Static timing analysis over gate netlists (the role of the STA tool
    [44] in the paper's flow): the result record, the load model and the
    slope-resolved pass.

    The worst-slope analysis itself runs on the compiled arena
    ({!Compiled.Timing}): arrival times propagate forward through the
    topologically ordered netlist; each gate's delay comes from the cell
    timing model with its actual fanout load and an optional per-stage
    NBTI threshold shift. The critical path is recovered by backtracking
    the max-arrival chain. *)

type result = {
  arrival : float array;  (** latest arrival time [s] per node *)
  gate_delay : float array;  (** delay [s] per node (0 for primary inputs) *)
  max_delay : float;  (** latest primary-output arrival *)
  critical_path : int list;  (** node ids, primary input first *)
  critical_output : int;  (** the PO at which [max_delay] occurs *)
}

val loads : Device.Tech.t -> Circuit.Netlist.t -> ?po_load:float -> unit -> float array
(** Capacitive load per node: the gate capacitance of every fanout pin,
    plus [po_load] on primary outputs (default: four inverter input
    capacitances, an FO4-style environment for otherwise unloaded
    outputs), plus each gate's own drain diffusion capacitance (half its
    output-stage device width in gate-capacitance units) — so even a
    dangling gate has a positive delay. *)

val default_po_load : Device.Tech.t -> float
(** The [po_load] {!loads} assumes when none is given. *)

val drain_cap : Device.Tech.t -> Cell.Stdcell.t -> float
(** The drain term {!loads} adds to a gate's own output node. *)

val no_aging : gate:int -> stage:int -> float
(** The zero threshold shift: fresh timing. *)

val degradation : fresh:result -> aged:result -> float
(** Relative critical-path slowdown [(aged - fresh) / fresh]. *)

(** {1 Slope-resolved timing}

    The default analysis times every stage at the worse of its rise and
    fall delay — safe but conservative for NBTI, which only slows rising
    transitions. The slope-resolved pass propagates rise and fall arrival
    times separately through the inversion parity of every cell. *)

type slope_result = {
  rise : float array;  (** rise arrival [s] per node *)
  fall : float array;
  max_delay_rf : float;  (** latest of any output's rise or fall *)
}

val analyze_slopes :
  Device.Tech.t ->
  Circuit.Netlist.t ->
  ?po_load:float ->
  ?stage_dvth_n:(gate:int -> stage:int -> float) ->
  temp_k:float ->
  stage_dvth:(gate:int -> stage:int -> float) ->
  unit ->
  slope_result

val slope_degradation : fresh:slope_result -> aged:slope_result -> float
