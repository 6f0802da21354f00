(** Circuit-level NBTI aging: turns a netlist, an operating schedule, the
    active-mode signal probabilities and a standby state into per-gate,
    per-stage threshold shifts, and runs fresh-vs-aged timing.

    This is the composition the paper's Section 3.3 performs: active-mode
    stress duties come from signal probabilities, standby-mode stress from
    the internal state pinned by the standby vector (or the all-0 / all-1
    bounding states of Section 4.3.3), both feed the temperature-aware
    ΔV_th model, and an STA pass turns the shifts into circuit delay. *)

type standby_state =
  | Standby_vector of bool array
      (** primary inputs held at this vector; internal nets by simulation *)
  | Standby_all_stressed
      (** the paper's worst-case bound: every PMOS gate input at 0 *)
  | Standby_all_relaxed
      (** best-case bound (internal node control / power gating): every
          PMOS input at 1, nothing stressed in standby *)

type config = {
  params : Nbti.Rd_model.params;
  tech : Device.Tech.t;
  schedule : Nbti.Schedule.t;
      (** per-phase stress duties are placeholders; they are overridden
          per-PMOS (phases at [t_ref] get the active duty, the others the
          standby duty) *)
  time : float;  (** operation time [s], e.g. {!Physics.Units.ten_years} *)
  pbti_scale : float option;
      (** [Some s] also ages the NMOS devices (PBTI, high-k stacks) with a
          degradation coefficient [s] times the NBTI one (~0.5 reported
          for HKMG); [None] (the paper's SiON setting) disables it.
          Note the standby bounds mirror: the all-0 state that maximizes
          NBTI relaxes every NMOS, and the all-1 state that relaxes the
          PMOS stresses every NMOS. *)
}

val default_config :
  ?params:Nbti.Rd_model.params ->
  ?tech:Device.Tech.t ->
  ?ras:float * float ->
  ?t_active:float ->
  ?t_standby:float ->
  ?time:float ->
  ?pbti_scale:float ->
  unit ->
  config
(** The paper's setting: PTM-90, RAS 1:9, 400 K / 330 K, 10 years. *)

val duty_table :
  ?polarity:[ `Pmos | `Nmos ] ->
  Circuit.Netlist.t ->
  node_sp:float array ->
  standby:standby_state ->
  (float * float) array array
(** Per-node, per-stage [(active_duty, standby_duty)] stress pairs: the
    worst PMOS of each stage under the active-mode signal probabilities
    and the standby state. Empty rows for primary inputs. This is the
    interface point for techniques that synthesize their own standby
    duties (MLV rotation, control-point insertion) and for the
    process-variation study. The pairs are read out of the memoized
    {!Compiled.Duty} tables {!analyze} picks from: each stage's active
    duty, with a standby duty of 1.0 or 0.0 from its stress bit under
    the gate's standby inputs (one logic simulation of the vector), or
    the bounding state's value mirrored across polarity.
    @raise Invalid_argument when a standby vector's length is not the
    number of primary inputs. *)

val stage_dvth_of_duties :
  config -> duties:(float * float) array array -> (gate:int -> stage:int -> float)
(** Threshold shifts for an explicit duty table: one
    {!Compiled.Duty.dvth} evaluation per gate stage, computed eagerly
    (the returned closure is a table lookup). *)

val stage_dvth_map :
  config ->
  Circuit.Netlist.t ->
  node_sp:float array ->
  standby:standby_state ->
  (gate:int -> stage:int -> float)
(** The per-stage PMOS threshold shifts of one standby state, as
    {!analyze} picks them from the memoized {!Compiled.Duty} shift pair
    (the same values as [stage_dvth_of_duties] over [duty_table]), for
    the slope-resolved pass ({!Compiled.Timing.analyze_slopes}) or, laid out
    by {!Compiled.Arena.stage_values}, for
    {!Compiled.Timing.aged_result}. The returned closure is a table
    lookup. *)

type analysis = {
  fresh : Compiled.Timing.result;
  aged : Compiled.Timing.result;
  degradation : float;  (** relative critical-path slowdown *)
  max_dvth : float;  (** largest per-stage shift in the circuit [V] *)
}

val analyze :
  config ->
  Circuit.Netlist.t ->
  ?po_load:float ->
  node_sp:float array ->
  standby:standby_state ->
  unit ->
  analysis
(** Fresh and aged STA at the active temperature, on the compiled arena
    ({!Compiled.Arena}). The threshold shifts come from {!Compiled.Duty}
    tables memoized per (netlist, signal probabilities) and, for the
    shift pair, per aging config: a bounding state reads one stored
    table, and a vector is one logic simulation plus a per-stage pick.
    @raise Invalid_argument when a standby vector's length is not the
    number of primary inputs. *)

val analyze_arena :
  config ->
  Compiled.Arena.t ->
  ?po_load:float ->
  ?scratch:Compiled.Logic.leak_scratch ->
  node_sp:float array ->
  standby:standby_state ->
  unit ->
  analysis
(** {!analyze} on an already-compiled netlist. For a [Standby_vector],
    the logic simulation runs in [scratch] when given, which then holds
    the vector's node values and per-gate fanin indices, so a caller can
    read the standby leakage of the same evaluation
    ({!Compiled.Logic.leakage_of_idxs}). *)

val shifts :
  ?polarity:[ `Pmos | `Nmos ] ->
  config ->
  Compiled.Arena.t ->
  node_sp:float array ->
  Compiled.Duty.shifts
(** The memoized shift pair of one polarity (default [`Pmos]) that
    {!analyze} reads: per flat stage, the threshold shift at standby
    duty 0.0 and at 1.0 under [config]. The tables behind incremental
    IVC sessions ({!Compiled.Incremental.Analysis.ctx}: [`Nmos] gives
    their [shifts_n]).
    @raise Invalid_argument for [`Nmos] when [config] has no
    [pbti_scale]. *)

val pmos_shape :
  config ->
  Circuit.Netlist.t ->
  Compiled.Arena.t ->
  node_sp:float array ->
  standby:standby_state ->
  Compiled.Aging.t
(** The memoized compiled NBTI shape for the PMOS duty table of one
    standby state, for the process-variation sampler: its per-sample
    threshold shifts reuse the shape's equivalent-schedule terms. *)

val analyze_with_duties :
  config ->
  Circuit.Netlist.t ->
  ?po_load:float ->
  duties:(float * float) array array ->
  unit ->
  analysis
(** Like {!analyze} but for an explicit duty table (shape as returned by
    {!duty_table}). PMOS-only: [pbti_scale] is not applied here. *)

val worst_case_config : config -> config
(** Same config with the standby phase forced to the active temperature —
    the prior-work worst-case-temperature assumption, for the ablation. *)
