(** The NBTI/leakage analysis and optimization platform of the paper's
    Fig. 6: netlist + technology + NBTI model in; signal probabilities,
    standby states, leakage, aged timing and the two optimization flows
    (IVC, sleep transistor insertion) out. *)

type sp_method =
  | Sp_analytic  (** exact per-gate propagation, net independence *)
  | Sp_monte_carlo of { n_vectors : int; seed : int }  (** the paper's method *)

type config = {
  aging : Aging.Circuit_aging.config;
  input_sp : float;  (** probability of 1 on every primary input (0.5 in the paper) *)
  sp_method : sp_method;
  leakage_temp : float;  (** temperature for leakage tables (400 K in Table 2) *)
  pool : Parallel.Pool.t option;
      (** work pool for the Monte-Carlo and search hot paths (default
          {!Parallel.Pool.default} inside those); results are bit-identical
          for any domain count, so the pool is excluded from both
          fingerprints *)
  budget : Parallel.Budget.t;
      (** cooperative deadline, polled at every pipeline stage boundary
          and inside the pooled hot paths; exhaustion raises
          {!Parallel.Budget.Deadline_exceeded}. A budget never changes
          what a completing flow computes, so it too is excluded from
          the fingerprints *)
}

val default_config :
  ?aging:Aging.Circuit_aging.config ->
  ?pool:Parallel.Pool.t ->
  ?budget:Parallel.Budget.t ->
  unit ->
  config
(** The paper's setting: SP 0.5, Monte-Carlo SPs (4096 vectors), leakage
    at 400 K, aging per {!Aging.Circuit_aging.default_config}. *)

val prepare_fingerprint : config -> string
(** Digest of only the fields {!prepare} reads (technology, input SP,
    SP estimator, leakage temperature). Sweeps over lifetime, RAS or
    temperatures share a prepare fingerprint, so a caching layer can
    reuse the expensive {!prepare} across such requests. *)

val config_fingerprint : config -> string
(** Canonical content digest (hex) of every numeric and structural field
    of the config — NBTI parameters, technology, schedule phases,
    lifetime, SP estimator and leakage temperature. Together with
    {!Circuit.Netlist.digest} it forms the content-addressed cache key
    used by the analysis service: equal fingerprints guarantee
    {!prepare} / {!analyze} produce identical results (both are
    deterministic; see the determinism regression test). *)

val fingerprint_memo_capacity : int
(** Both fingerprints are rendered once per distinct config and then
    served from a memo ({!Compiled.Memo}) keyed on the exact bits of
    every field the rendering reads; it keeps this many of the most
    recently used. Safe to call from any thread or domain. *)

type prepared
(** A netlist with its signal probabilities and leakage tables computed. *)

val prepare : config -> Circuit.Netlist.t -> prepared
(** Besides signal probabilities and leakage tables, compiles the
    netlist into its flat arena ({!Compiled.Arena}) and warms the
    timing constants at the active temperature, both keyed on
    {!Circuit.Netlist.digest} — analyses on the prepared pipeline hit
    the compiled caches directly. Also computes once what every
    {!analyze} reports unchanged: the netlist statistics and the
    expected active leakage. Nothing here
    depends on the aging config beyond its technology, so one prepared
    pipeline serves requests that differ in lifetime, schedule or R-D
    parameters. *)

val netlist : prepared -> Circuit.Netlist.t
val node_sp : prepared -> float array
val tables : prepared -> Leakage.Circuit_leakage.tables

val arena : prepared -> Compiled.Arena.t
(** The warm compiled form of {!netlist}. *)

type analysis = {
  stats : Circuit.Netlist.stats;
  fresh_delay : float;  (** [s] *)
  aged_delay : float;
  degradation : float;
  max_dvth : float;  (** [V] *)
  standby_leakage : float;  (** [A], for the analyzed standby state *)
  active_leakage : float;  (** [A], expectation under the SPs *)
}

val analyze : config -> prepared -> standby:Aging.Circuit_aging.standby_state -> analysis
(** One full pass of the Fig. 6 flow for a given standby state. The
    standby leakage of the bounding states is reported as the all-0 /
    all-1 gate-input bound (sum of per-gate LUT entries). *)

val optimize_ivc :
  config -> prepared -> rng:Physics.Rng.t -> ?pool:int -> ?tolerance:float -> unit ->
  Ivc.Co_opt.result * Ivc.Mlv.search_stats
(** MLV search + NBTI co-optimization (Table 3). *)

val optimize_st :
  config ->
  prepared ->
  style:Sleep.St_insertion.style ->
  beta:float ->
  ?vth_st:float ->
  ?nbti_aware:bool ->
  unit ->
  Sleep.St_insertion.result
(** Sleep transistor insertion analysis (Fig. 11). *)

val internal_node_potential : config -> prepared -> Ivc.Internal_node.potential
(** Table 4's bounding analysis. *)
