(** Metric registry: named counters, gauges and histograms.

    One registry holds every metric of a run. Registration is
    idempotent by name — asking twice for the same name returns the
    same handle — so independent subsystems can publish into a shared
    registry without coordination. Re-registering a name with a
    different kind raises [Invalid_argument].

    Metrics measured with the wall clock ({!Clock}) must be registered
    with [~wallclock:true]; {!to_json} can then exclude them, leaving a
    report that is byte-identical across same-seed runs (the
    determinism tests depend on this split). *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** {2 Counters} — monotone event counts (packets, events, drops). *)

val counter : ?wallclock:bool -> t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

val set_counter : counter -> int -> unit
(** Publish a snapshot taken elsewhere (e.g. a subsystem's internal
    tally) — idempotent, unlike {!add}. *)

val counter_value : counter -> int

(** {2 Gauges} — last-value measurements. *)

val gauge : ?wallclock:bool -> t -> string -> gauge
val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** {2 Histograms} — value distributions (delays, waits). *)

val histogram : ?wallclock:bool -> t -> string -> histogram
(** Bucket upper bounds are the decades from 1 µs to 10 s, suited to
    the simulation's second-scale delays; an implicit overflow bucket
    catches the rest. *)

val observe : histogram -> float -> unit
val histogram_count : (* lint: allow unused-export: introspection counter, samples observed *)
  histogram -> int
val histogram_sum : (* lint: allow unused-export: introspection counter, sum of samples observed *)
  histogram -> float
(** {2 Merge} *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst]: counters add, histograms
    add pointwise (bucket bounds must match), gauges keep the maximum
    of the set values. Names unknown to [dst] are copied over (the
    source is left untouched), appended in [src] registration order.
    The combine is commutative and associative, so merging per-task
    registries in a fixed order yields totals independent of how the
    tasks were scheduled — the Exec layer's deterministic reduce.
    @raise Invalid_argument on kind or bucket-bound mismatch. *)

(** {2 Export} *)

val names : t -> string list
(** All registered names, sorted. *)

val to_json : ?wallclock:bool -> t -> Json.t
(** One object field per metric, names sorted (stable schema).
    [~wallclock:false] omits wallclock-flagged metrics. *)
