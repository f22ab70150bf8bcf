(** Deterministic pseudo-random number generation.

    All stochastic components of the reproduction (topology generation,
    member selection, join order, traffic jitter) draw from this module so
    that every experiment is reproducible from a single integer seed.

    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a
    64-bit state advanced by a Weyl constant and finalized with a
    variance-maximizing mixer. It is small, fast, splittable and passes
    BigCrush, which is ample for simulation workloads. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator. Generators created from equal
    seeds produce equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator duplicating [t]'s current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]. Streams of
    the parent and child are statistically independent. *)

val bits64 : (* lint: allow unused-export: reference oracle, the raw stream bit for bit *)
  t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to [\[0,1\]]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> int -> int list
(** [sample t k n] draws [k] distinct integers from [\[0, n)], in random
    order. @raise Invalid_argument if [k > n] or [k < 0]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on
    empty input. *)
