(** Order statistics for the benchmark's reports. *)

val median : float list -> float

(** [(q1, median, q3)] by the exclusive method of Python's
    [statistics.quantiles(xs, n=4)]. *)
val quartiles : float list -> float * float * float

(** [percentile p xs] is the nearest-rank [p] percentile ([0 < p <= 1])
    of [xs]: the value at rank [ceil (p * n)]. *)
val percentile : float -> float list -> float

(** [tail xs] is [Some (p, value, beyond)] for the highest [p] among
    99.9, 99, 95, 90, 75 and 50 % whose nearest-rank value (rank
    [ceil (p * n)]) leaves at least [min_beyond] (default 10) samples
    above it, [None] when no level does. *)
val tail : ?min_beyond:int -> float list -> (float * float * int) option

val geomean : float list -> float
val mean : float list -> float

(** [host_factor ~reference points s e] normalises a CPU time measured
    over the interval [\[s, e\]] to the host speed at which a probe
    takes [reference] seconds. [points] are probe points [(time, probe
    seconds)], in any order. Between two consecutive points the factor
    is [reference] over the mean of their probes; the result is its
    time-weighted mean over the interval, the factor of the segment
    holding [s] when the interval has no length, and [nan] when no
    segment covers it. *)
val host_factor : reference:float -> (float * float) list -> float -> float -> float
