(** Minimum-leakage-vector (MLV) search for input vector control
    (paper Section 4.3.1; algorithm of Fig. 7).

    Finding the true MLV is NP-complete; the paper uses a probability-based
    heuristic: keep a set of low-leakage vectors, extract per-input 1
    probabilities from the set, sample new vectors from those
    probabilities, and iterate until the probabilities converge to 0/1.
    An exhaustive search (small circuits) and plain random search are
    provided as baselines and for tests. *)

type candidate = { vector : bool array; leakage : float  (** [A] *) }

val evaluate : Leakage.Circuit_leakage.tables -> Circuit.Netlist.t -> bool array -> candidate

val vector_key : bool array -> string
(** The vector packed little-endian into a bit string: the dedup hash key
    and the deterministic tie-break order. Fixed-width per circuit, so
    equal keys mean equal vectors. *)

(** Every search scores vectors through one kernel,
    {!Compiled.Logic.sweep_leakage}: up to 64 vectors per packed logic
    sweep, each value bit-identical to {!evaluate}. *)

val exhaustive : ?par:Parallel.Pool.t -> Leakage.Circuit_leakage.tables -> Circuit.Netlist.t -> candidate
(** Global optimum by enumeration, fanned over [par] (default
    {!Parallel.Pool.default}) in fixed 4096-vector blocks of 64-index
    sweeps; equal-leakage ties break on the lower vector index, so the
    result is independent of the domain count. @raise Invalid_argument
    beyond 20 primary inputs. *)

val random_search :
  ?budget:Parallel.Budget.t ->
  Leakage.Circuit_leakage.tables ->
  Circuit.Netlist.t ->
  rng:Physics.Rng.t ->
  n:int ->
  candidate
(** Best of [n] uniform random vectors; the first-drawn of equal
    leakages wins. [budget] (default unlimited) is polled before each
    RNG draw after the first: on expiry the best of the vectors drawn so
    far is returned (never raises), and the prefix of the RNG stream
    consumed matches what an unbounded run would have drawn. *)

type search_stats = {
  rounds : int;
  evaluations : int;  (** vectors drawn, repeats included *)
  converged : bool;  (** whether all input probabilities reached 0/1 *)
}

val probability_based :
  ?par:Parallel.Pool.t ->
  ?budget:Parallel.Budget.t ->
  Leakage.Circuit_leakage.tables ->
  Circuit.Netlist.t ->
  rng:Physics.Rng.t ->
  ?pool:int ->
  ?tolerance:float ->
  ?max_rounds:int ->
  ?max_set:int ->
  unit ->
  candidate list * search_stats
(** The Fig. 7 algorithm. Vectors are drawn from [rng] sequentially on
    the calling domain. A per-search memo keyed by {!vector_key} scores
    each distinct vector once: a round's unseen vectors go to the kernel
    in 64-vector sweeps that fan out over [par] (default
    {!Parallel.Pool.default}), and repeats read the memo. The MLV set
    orders equal leakages by {!vector_key}, so the search result is
    bit-identical for any domain count. [pool] vectors per round (default 64);
    [tolerance] is the leakage band that defines the MLV set, as a
    fraction of the set's minimum (default 0.04 — the paper keeps MLVs
    within 4 % of the circuit leakage); [max_rounds] caps the iteration
    (default 50); [max_set] caps the set size (default 16, best kept) so
    the downstream NBTI co-optimization evaluates a bounded candidate
    list. [budget] (default unlimited) is polled at every round boundary
    and inside the pooled sweeps; exhaustion raises
    {!Parallel.Budget.Deadline_exceeded}. Returns the deduplicated MLV
    set sorted by leakage (best first), never empty.
    @raise Invalid_argument when [pool < 2] or [tolerance] is negative or
    nan. *)
