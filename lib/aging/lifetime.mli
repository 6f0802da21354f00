(** Lifetime and guardband solving: the inverse questions of the aging
    analysis.

    A signoff flow reserves a timing margin for NBTI; the two questions it
    asks are (a) given a lifetime, how much margin ("what guardband for
    ten years?") and (b) given a margin, how long until the circuit
    violates it ("when does a 3 % guardband run out?"). (a) is
    {!Circuit_aging.analyze}; this module answers (b) by inverting the
    monotone degradation-vs-time curve with bisection on a log time
    axis. *)

val degradation_at :
  Circuit_aging.config ->
  Circuit.Netlist.t ->
  node_sp:float array ->
  standby:Circuit_aging.standby_state ->
  time:float ->
  float
(** Relative critical-path slowdown after [time] seconds (the config's own
    [time] field is ignored). *)

val solve :
  Circuit_aging.config ->
  Circuit.Netlist.t ->
  node_sp:float array ->
  standby:Circuit_aging.standby_state ->
  margin:float ->
  ?t_min:float ->
  ?t_max:float ->
  unit ->
  [ `Lifetime of float | `Never_fails | `Fails_immediately ]
(** Largest operation time whose degradation stays within [margin]
    (a fraction, e.g. 0.03 for a 3 % guardband), searched over
    [[t_min, t_max]] (defaults: 1 hour to 30 years, relative tolerance
    1 %). [`Never_fails] if even [t_max] stays within the margin,
    [`Fails_immediately] if [t_min] already exceeds it. *)
