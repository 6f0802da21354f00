(** Circuit-level leakage estimation on top of the per-cell lookup tables
    (paper Section 4.3.1, eq. 24).

    Standby leakage is exact for a concrete standby vector: the logic
    simulator fixes every internal net, and each gate's LUT is indexed by
    its actual input state. Active (expected) leakage weights each gate's
    LUT by the joint probability of its input state, assuming net
    independence (eq. 24). *)

type tables
(** Leakage LUTs for every distinct cell of a netlist at one temperature. *)

val build_tables : Device.Tech.t -> Circuit.Netlist.t -> temp_k:float -> tables
val tables_temp : tables -> float

val standby_leakage : tables -> Circuit.Netlist.t -> vector:bool array -> float
(** Total leakage [A] with primary inputs held at [vector] (PI order). *)

val expected_leakage : tables -> Circuit.Netlist.t -> node_sp:float array -> float
(** Expected active leakage [A] given per-node signal probabilities (from
    {!Logic.Signal_prob}). *)

val per_gate_standby : tables -> Circuit.Netlist.t -> vector:bool array -> float array
(** Per-node leakage breakdown (0 for primary inputs). *)

val node_currents : tables -> Circuit.Netlist.t -> float array array
(** Per-node leakage LUT rows ([[||]] for primary inputs), indexed by
    {!Cell.Stdcell.index_of_vector} of the gate's input state — the raw
    material for the compiled standby evaluators
    ({!Compiled.Logic.leakage_of_idxs}, and
    {!Compiled.Logic.sweep_leakage} for 64 vectors at once). *)

val per_gate_expected : tables -> Circuit.Netlist.t -> node_sp:float array -> float array
(** Per-node expected active leakage (0 for primary inputs); sums to
    {!expected_leakage}. Used by techniques with per-gate technology
    choices (dual-V_th). *)

val worst_standby_bound : tables -> Circuit.Netlist.t -> float
(** Sum of each gate's worst-vector leakage: an upper bound no input
    vector can exceed (gate input states are correlated, so the true max
    is usually well below). Useful as an MLV search sanity bound. *)

val best_standby_bound : tables -> Circuit.Netlist.t -> float
(** Dual lower bound: sum of per-gate minima. *)
