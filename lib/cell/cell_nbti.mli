(** Per-PMOS NBTI stress-condition extraction (paper Section 4.1, "internal
    node dependence").

    A PMOS is under NBTI stress when its gate is at logic 0 {e and} its
    source is held at V_dd — i.e. every PMOS above it in the pull-up stack
    conducts. This is why NAND gates (parallel PMOS, source hard-wired to
    V_dd) are stressed whenever their own input is 0, while in a NOR stack
    only the prefix of the stack whose inputs are all 0 is stressed — the
    asymmetry behind Table 2 and behind the paper's observation that the
    minimum-leakage vector of NAND/AND/INV gates is the {e worst} NBTI
    vector, but for NOR/OR gates it is the {e best}. *)

type device_stress = {
  stage : int;
  pin : Network.pin;
  wl : float;
  stressed : bool;
}

val stressed_under_vector : Stdcell.t -> vector:bool array -> device_stress list
(** Stress state of every pull-up PMOS of the cell under a static input
    vector (the standby state). *)

val any_stressed : Stdcell.t -> vector:bool array -> bool

type device_duty = {
  stage : int;
  pin : Network.pin;
  wl : float;
  duty : float;  (** probability of the stress condition *)
}

val stress_probabilities : Stdcell.t -> sp:float array -> device_duty list
(** Stress probability of every pull-up PMOS assuming independent inputs
    with probability-of-1 [sp] (the active-mode duty factor). Internal
    stage-output probabilities are computed exactly from the cell logic;
    the conduction prefix of shared stacks uses the independence
    approximation, exact for the single-occurrence pin structures of the
    basic library. Each duty is clamped into [0, 1] (input
    probabilities a few ulps out of range would otherwise carry over);
    in-range values keep their bits. *)

val stress_duties :
  Stdcell.t -> sp:float array -> standby_vector:bool array -> (float * float) list
(** Per-PMOS [(active_duty, standby_duty)], ready for
    {!Nbti.Degradation.gate_degradation}: pairs up
    {!stress_probabilities} (active) with {!stressed_under_vector}
    (standby, duty 1.0 when stressed). *)

val worst_stage_duties :
  Stdcell.t -> sp:float array -> standby_vector:bool array -> stage:int -> float * float
(** The duty pair of the most-stressed PMOS of one stage (max active duty
    among that stage's devices, standby flag ORed) — the per-stage summary
    used by timing analysis. (1.0, 1.0) never exceeds it. Equal to
    [(stage_duty active ~stage, if stage_stressed standby ~stage then 1.0
    else 0.0)] over {!stress_probabilities} and {!stressed_under_vector}. *)

val stage_duty : device_duty list -> stage:int -> float
(** The active half of {!worst_stage_duties}: the largest duty among one
    stage's devices, folded in list order from 0.0. *)

val stage_stressed : device_stress list -> stage:int -> bool
(** The standby half of {!worst_stage_duties}: whether any device of the
    stage is stressed. *)

(** {1 PBTI: the NMOS mirror (high-k stacks)}

    Positive bias temperature instability stresses an NMOS whose gate is
    {e high} while its source sits at ground — the exact mirror of the
    PMOS condition, with the same stack-prefix rule on the pull-down
    network (counted from the ground end). Negligible for the paper's
    SiON 90 nm node, first-order for high-k metal-gate stacks. *)

val nmos_stressed_under_vector : Stdcell.t -> vector:bool array -> device_stress list
(** Stress state of every pull-down NMOS under a static vector. *)

val nmos_stress_probabilities : Stdcell.t -> sp:float array -> device_duty list
(** Stress probability of every pull-down NMOS (active-mode duty),
    clamped into [0, 1] like {!stress_probabilities}. *)

val worst_stage_duties_nmos :
  Stdcell.t -> sp:float array -> standby_vector:bool array -> stage:int -> float * float
(** Per-stage worst NMOS duty pair, mirroring {!worst_stage_duties}. *)
