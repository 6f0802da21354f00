(** Control point insertion: internal node control made concrete
    (Lin/Yuan & Qu gate replacement [9], Rahman & Chakrabarti [10]).

    Table 4 bounds what controlling internal nodes could buy; this module
    implements the actual technique. A {e control point} replaces a gate
    with a one-input-wider variant whose extra input is a sleep signal:
    active mode drives it to 1 (logic unchanged, small delay/area cost);
    standby drives it to 0, forcing the gate output to 1 — which relaxes
    every PMOS the net gates downstream.

    Forcing-to-1 replacements exist for the inverting AND-family cells:
    INV -> NAND2, NAND2 -> NAND3, NAND3 -> NAND4. Candidates are gates
    that (a) are replaceable, (b) would sit at 0 in the given standby
    state, and (c) drive near-critical gates whose stress the forced 1
    removes. Selection is greedy by the amount of stressed near-critical
    fanout. *)

type insertion = {
  netlist : Circuit.Netlist.t;  (** rewritten circuit, with a [sleep_n] primary input *)
  sleep_input : int;  (** node id of the added control input *)
  controlled : int list;  (** original node ids of the replaced gates *)
  controlled_new : int list;  (** the same gates' ids in [netlist] *)
  standby_vector : bool array;  (** original standby vector + sleep_n = 0 *)
  input_sp : float array;  (** original input SPs + sleep_n = 1 (active) *)
}

val candidate_gates :
  Circuit.Netlist.t ->
  standby_vector:bool array ->
  slack:Compiled.Slack.t ->
  slack_eps:float ->
  (int * int) list
(** Replaceable gates at standby value 0 that drive at least one
    near-critical gate, as [(gate_id, n_critical_fanouts)], best first.
    The replacement cells keep their worst-case drive strength, so even
    critical drivers are eligible; {!evaluate}'s verified greedy rejects
    insertions that do not pay off. *)

val insert :
  Circuit.Netlist.t ->
  standby_vector:bool array ->
  input_sp:float array ->
  gates:int list ->
  insertion
(** Rewrites the netlist with the given gates controlled.
    @raise Invalid_argument if a gate is not replaceable. *)

type evaluation = {
  baseline_fresh : float;  (** [s] *)
  baseline_degradation : float;
  fresh_with_cp : float;  (** [s]; includes the replacement gates' extra delay *)
  degradation_with_cp : float;
  aged_baseline : float;  (** [s] *)
  aged_with_cp : float;  (** [s] *)
  aged_improvement : float;
      (** 1 - aged_with_cp / aged_baseline: positive when the technique
          wins at end of life despite the time-0 cost *)
  area_overhead : float;  (** added device W/L as a fraction of circuit area *)
  n_control_points : int;
}

val evaluate :
  Aging.Circuit_aging.config ->
  Circuit.Netlist.t ->
  standby_vector:bool array ->
  ?budget:int ->
  ?slack_eps_fraction:float ->
  unit ->
  evaluation
(** End-to-end: analyze the baseline under [standby_vector], then grow a
    set of up to [budget] control points (default 10) greedily — each step
    keeps the candidate (drivers of gates within [slack_eps_fraction] of
    the critical delay, default 0.15) that most reduces the verified
    end-of-life delay, so [aged_improvement >= 0] always. Input SPs are
    uniform 0.5 as in the paper. *)
