(** Streaming statistics accumulator.

    Collects scalar observations and reports count, mean, standard deviation,
    extrema and quantiles. Mean and variance use Welford's online update so
    they remain numerically stable for long series; quantiles retain the full
    sample, unboxed in a growable float array (8 bytes an observation, so a
    benchmark that keeps every run's latency stays small). *)

type t

val create : unit -> t
(** Fresh, empty accumulator. *)

val add : t -> float -> unit
(** Record one observation. *)

val add_int : t -> int -> unit
(** Record one integer observation. *)

val count : t -> int
(** Number of observations recorded. *)

val mean : t -> float
(** Arithmetic mean; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : t -> float
(** Square root of {!variance}. *)

val min_value : t -> float
(** Smallest observation; [nan] when empty. *)

val max_value : t -> float
(** Largest observation; [nan] when empty. *)

val total : t -> float
(** Sum of all observations. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0, 1\]], by linear interpolation between
    order statistics; [nan] when empty. The sorted sample array is cached
    and invalidated by {!add}, so repeated quantile queries between
    additions sort only once. *)

val median : t -> float
(** [quantile t 0.5]. *)

val to_list : t -> float list
(** All observations, in insertion order. *)

val summary : t -> string
(** One-line rendering: count, mean, stddev, min, max. *)
