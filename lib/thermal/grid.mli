(** Multi-node RC thermal network — a HotSpot-style [28] refinement of the
    single-node {!Rc_model}.

    The die is a grid of blocks, each a thermal node with its own power
    input and capacitance, laterally coupled to its neighbours and
    vertically coupled through a shared package node to ambient:

    {[ C_i dT_i/dt = P_i - sum_j G_ij (T_i - T_j) - G_pkg (T_i - T_pkg)
       C_p dT_p/dt = sum_i G_pkg (T_i - T_p) - (T_p - T_amb) / R_sink ]}

    Integration is backward Euler (unconditionally stable, so the stiff
    block/package time-constant split costs nothing). The model answers
    the spatial question the lumped model cannot: how much hotter a
    high-activity block runs than its neighbours, i.e. per-block
    (T_active, T_standby) pairs for block-level NBTI analysis. *)

type t

val create :
  ?rows:int ->
  ?cols:int ->
  ?block_c:float ->
  ?lateral_g:float ->
  ?package_g:float ->
  ?package_c:float ->
  ?sink_r:float ->
  ?t_amb:float ->
  unit ->
  t
(** Defaults: 4x4 blocks, block capacitance 2 J/K, lateral conductance
    1.5 W/K between neighbours, 0.8 W/K per block into a 400 J/K package
    draining through 0.32 K/W to 323 K ambient — calibrated so that 100 W
    spread uniformly lands in the Fig. 2 temperature band, matching
    {!Rc_model.default} in the aggregate. *)

val n_blocks : t -> int

val uniform_state : t -> temp_k:float -> float array
(** Initial state: every block and the package at [temp_k]. Length
    [n_blocks + 1] (the package is last). *)

val steady_state : t -> powers:float array -> float array
(** Block (+ package) temperatures under constant per-block powers,
    solved by iterating backward Euler to convergence. *)

val step : t -> state:float array -> powers:float array -> dt:float -> float array
(** One backward-Euler step (Gauss–Seidel inner solve). *)

val simulate :
  t -> state:float array -> powers:(float * float array) array -> dt:float ->
  (float * float array) array
(** Piecewise-constant per-block power trace [(duration, watts array)];
    returns [(time, state)] samples. *)

val hottest : float array -> float
val block_temp : t -> float array -> row:int -> col:int -> float
