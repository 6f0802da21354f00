(** Leakage/NBTI co-optimization of the standby input vector
    (paper Sections 4.2–4.3.2, Table 3).

    Given the MLV set produced by {!Mlv} (all within the leakage
    tolerance), every candidate is evaluated for NBTI-induced circuit
    delay degradation under the operating schedule, and the vector with
    the smallest degradation is selected — "the MLV that simultaneously
    achieves the minimum circuit performance degradation and the maximum
    leakage reduction rate". *)

type choice = {
  vector : bool array;
  leakage : float;  (** standby leakage [A] *)
  degradation : float;  (** relative aged critical-path slowdown *)
  aged_delay : float;  (** [s] *)
}

type result = {
  best : choice;  (** minimum degradation among the candidates *)
  all : choice list;  (** every evaluated candidate, by degradation *)
  fresh_delay : float;  (** [s] *)
  spread : float;
      (** max - min degradation across the MLV set, as a fraction of fresh
          delay — the paper's "MLV diff" column *)
}

val co_optimize :
  ?par:Parallel.Pool.t ->
  ?budget:Parallel.Budget.t ->
  ?currents:float array array ->
  Aging.Circuit_aging.config ->
  Leakage.Circuit_leakage.tables ->
  Circuit.Netlist.t ->
  node_sp:float array ->
  candidates:Mlv.candidate list ->
  result
(** Candidates are answered by per-worker
    {!Compiled.Incremental.Analysis} sessions over [par] (default
    {!Parallel.Pool.default}) that re-evaluate only the dirty cone
    between the (highly correlated) MLV vectors — bit-identical to one
    {!Aging.Circuit_aging.analyze} per candidate, PBTI included. Equal
    degradations order by {!Mlv.vector_key}, so the result is
    independent of the domain count. [budget] is polled before each
    candidate. The sessions read the shift pairs of [config]
    ({!Aging.Circuit_aging.shifts}, the NMOS pair too when it has a
    [pbti_scale]) and the per-node leakage LUT rows [currents]
    ({!Leakage.Circuit_leakage.node_currents} of [tables], computed here
    when absent). @raise Invalid_argument on an empty candidate list. *)

val run :
  ?par:Parallel.Pool.t ->
  ?budget:Parallel.Budget.t ->
  ?currents:float array array ->
  Aging.Circuit_aging.config ->
  Leakage.Circuit_leakage.tables ->
  Circuit.Netlist.t ->
  node_sp:float array ->
  rng:Physics.Rng.t ->
  ?pool:int ->
  ?tolerance:float ->
  unit ->
  result * Mlv.search_stats
(** MLV search + co-optimization in one call, both phases on [par],
    both bounded by [budget] (default unlimited). *)
