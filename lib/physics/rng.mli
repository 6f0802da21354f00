(** Deterministic, splittable pseudo-random number generator (splitmix64).

    Every stochastic component of the reproduction (Monte-Carlo signal
    probabilities, random MLV search, process variation, workload
    generation) takes an explicit [Rng.t] so experiments are reproducible
    from a single seed and independent streams never interfere. *)

type t

val create : seed:int -> t
(** A fresh generator from an integer seed. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent
    generator. *)

val copy : t -> t
(** A snapshot of the current state; the copy evolves independently. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** 62 uniform random bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n); requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val uniform : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool
(** A fair coin; allocates nothing. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p]. Every call consumes
    one draw; outside (0, 1) the answer is fixed: true for [p >= 1],
    false for [p <= 0] and nan. Allocates nothing. *)

val bernoulli_into : t -> p:float array -> bool array -> unit
(** [bernoulli_into t ~p v] sets [v.(i)] to a {!bernoulli} draw with
    probability [p.(i)], in index order: the same stream and answers as
    drawing them one by one, without boxing each probability on the way
    or allocating. @raise Invalid_argument when the lengths differ. *)

val gaussian : t -> mean:float -> sigma:float -> float
(** Normally distributed sample (Box–Muller; one fresh pair per call, the
    spare is cached in the state). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element; the array must be non-empty. *)
