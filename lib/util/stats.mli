(** Small statistics toolkit for experiment harnesses.

    Used to average figure series over random seeds and to summarize
    per-run measurements (overheads, delays). *)

type t
(** Streaming accumulator (Welford's online mean): numerically stable
    mean, minimum and maximum without storing samples. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Mean of the samples; [0.] if empty. *)

val min : t -> float
(** Smallest sample; [infinity] if empty. *)

val max : t -> float
(** Largest sample; [neg_infinity] if empty. *)

val of_list : float list -> t

(** Pure helpers over lists. *)

val median_l : float list -> float
(** Median (average of middle two for even length); [0.] if empty. *)

val percentile_l : float -> float list -> float
(** [percentile_l p xs] for [p] in [\[0,100\]], nearest-rank method;
    [0.] if empty. *)
