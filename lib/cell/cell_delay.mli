(** Cell timing: alpha-power-law stage delays, load capacitance and the
    aged-delay computation that static timing analysis consumes.

    A stage's rise (fall) delay discharging a load [C_L] is
    [C_L * V_dd / I_on,eff] (eq. 20), where the effective drive is the
    worst single-vector conduction strength of the pull-up (pull-down)
    network: the weakest input condition that still switches the output.
    Multi-stage cells are timed by a longest path over their internal
    stage DAG, each internal stage loaded by the gate capacitance it
    drives. NBTI enters as a per-stage PMOS threshold shift that scales
    the stage delay by [1 + alpha * dVth / (V_dd - V_th0)] (eq. 22). *)

val input_capacitance : Device.Tech.t -> Stdcell.t -> pin_index:int -> float
(** Gate capacitance [F] presented by external input [pin_index] (summed
    over every device it gates, in all stages). *)

val stage_load : Device.Tech.t -> Stdcell.t -> stage:int -> external_load:float -> float
(** Capacitance [F] driven by a stage: internal fanout gate capacitance
    plus, for the output stage, [external_load]. *)

val worst_strength : Network.t -> on_polarity:Device.Mosfet.polarity -> float
(** Minimum non-zero conduction strength (W/L of the equivalent single
    device: series = harmonic sum, parallel = sum) over all input vectors
    that make the network conduct. This is the drive used for worst-case
    delay. @raise Invalid_argument if the network can never conduct. *)

val stage_deps : Stdcell.stage -> int list
(** Indices of the internal stages whose outputs feed this stage's
    inputs, in pull-down pin order — the intra-cell dependency edges the
    stage DAG longest path follows. *)

val stage_delay :
  Device.Tech.t ->
  Stdcell.stage ->
  load:float ->
  temp_k:float ->
  dvth:float ->
  ?dvth_n:float ->
  unit ->
  float
(** Worst of rise and fall delay [s] of one stage into [load]: the
    [Float.max] of {!stage_rise_fall}, with [dvth_n] defaulting to 0
    (PBTI only matters for high-k stacks). *)

val delay :
  Device.Tech.t ->
  Stdcell.t ->
  load:float ->
  temp_k:float ->
  stage_dvth:(int -> float) ->
  ?stage_dvth_n:(int -> float) ->
  unit ->
  float
(** Cell propagation delay [s]: longest path through the stage DAG with
    per-stage PMOS (and optionally NMOS) threshold shifts. Use
    [stage_dvth = fun _ -> 0.0] for the fresh delay. *)

val fresh_delay : Device.Tech.t -> Stdcell.t -> load:float -> temp_k:float -> float

val stage_rise_fall :
  Device.Tech.t ->
  Stdcell.stage ->
  load:float ->
  temp_k:float ->
  dvth:float ->
  dvth_n:float ->
  float * float
(** The stage's (rise, fall) delays separately: NBTI ([dvth]) slows only
    the rise, PBTI ([dvth_n]) only the fall. *)

val delay_pair :
  Device.Tech.t ->
  Stdcell.t ->
  load:float ->
  temp_k:float ->
  stage_dvth:(int -> float) ->
  ?stage_dvth_n:(int -> float) ->
  input_arrival:float * float ->
  unit ->
  float * float
(** Slope-resolved cell propagation: every library stage inverts, so a
    stage's output-rise arrival follows its inputs' fall arrivals and vice
    versa; the parity composes across the internal stage DAG (an AND's
    output rise tracks its inputs' rises, an XOR mixes). Returns the
    output (rise, fall) arrival for the given input (rise, fall)
    arrivals (applied uniformly to all cell inputs). *)

val fo4_load : Device.Tech.t -> Stdcell.t -> float
(** Four copies of the cell's own (first-input) capacitance — the
    conventional standalone load for cell-level tables such as Table 2. *)
