(** Descriptive statistics and the normal distribution.

    Used by the process-variation study (Fig. 12) and by Monte-Carlo signal
    probability estimation. *)

val mean : float array -> float
(** Arithmetic mean; the array must be non-empty. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for arrays of length 1. *)

val stddev : float array -> float

val min_max : float array -> float * float
(** Smallest and largest element; the array must be non-empty. *)

val percentile : float array -> p:float -> float
(** [percentile xs ~p] with [p] in [0, 100], linear interpolation between
    order statistics. Sorts a copy; the input is not modified. *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p05 : float;
  p50 : float;
  p95 : float;
}

val summarize : float array -> summary

val histogram : float array -> bins:int -> (float * float * int) array
(** [histogram xs ~bins] is an array of [(lo, hi, count)] over equal-width
    bins spanning [min, max]. Values equal to the global max land in the last
    bin. [bins >= 1]. *)

val normal_pdf : mean:float -> sigma:float -> float -> float

val normal_cdf : mean:float -> sigma:float -> float -> float
(** Via [erf]; max absolute error ~1e-7 (Abramowitz–Stegun 7.1.26). *)

val erf : float -> float

val correlation : float array -> float array -> float
(** Pearson correlation of two equal-length arrays (length >= 2). Returns 0
    when either variance is 0. *)

val weighted_quantile : float array -> weights:float array -> q:float -> float
(** [weighted_quantile xs ~weights ~q] with [q] in [0, 1]: the inverse of the
    weighted empirical CDF, linearly interpolated between adjacent order
    statistics. Weights must be non-negative with a positive sum; equal
    weights reduce to [percentile xs ~p:(100 q)] up to interpolation
    convention. Sorts a copy; inputs are not modified. *)

val hdi : float array -> level:float -> float * float
(** [hdi xs ~level] is the narrowest interval containing at least
    [level] (in (0, 1]) of the samples — the highest-density interval for a
    unimodal sample. Sorts a copy; ties broken toward the leftmost window. *)

val autocorrelation : float array -> lag:int -> float
(** Sample autocorrelation at [lag] (biased n-denominator estimator, the
    standard choice for ESS). 1 at lag 0; 0 when the variance is 0 or
    [lag >= length]. *)

val ess : float array -> float
(** Effective sample size of a correlated (e.g. MCMC) series via Geyer's
    initial-positive-sequence truncation of the autocorrelation sum:
    [n / (2 * sum of positive adjacent-pair rho sums - 1)], clamped to
    [1, n]. Returns [n] for n < 4 or a constant series. *)
