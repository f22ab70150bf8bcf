(** Discrete-event simulation engine.

    A time-ordered queue of events over the monotone radix heap
    ({!Scmp_util.Radix_heap}) that also runs Dijkstra's frontier.
    Events scheduled for the same
    instant execute in scheduling order (FIFO), which makes whole-run
    behaviour deterministic — a property the reproduction relies on for
    seed-stable experiment output.

    Events come in three shapes: a general thunk ({!schedule} /
    {!schedule_at}), a periodic task ({!every}) whose single record is
    re-enqueued after each firing, and a closure-free fast path
    ({!schedule_fast}) that carries five immediate ints to a
    {!dispatch} handler registered once per event family — the shape
    the packet-delivery hot path uses to avoid allocating a thunk per
    simulated packet. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time; [0.] before the first event runs. *)

val schedule : t -> ?background:bool -> delay:float -> (unit -> unit) -> unit
(** Enqueue an event [delay] after the current time. [background]
    events (state-expiry housekeeping and the like) execute in time
    order like any other but do not keep {!run} alive — see {!run}.
    @raise Invalid_argument on negative delay. *)

val schedule_at : t -> ?background:bool -> time:float -> (unit -> unit) -> unit
(** Enqueue at an absolute time, not before the current time.
    @raise Invalid_argument if [time < now t]. *)

val every :
  t -> interval:float -> ?until:float -> ?background:bool -> (unit -> unit) -> unit
(** Recurring event starting one [interval] from now, stopping after
    [until] (absolute, inclusive) if given. The window gates every
    firing including the first: if [now t +. interval > until] the
    task never fires. The whole recurrence is one event record,
    re-enqueued after each firing — N firings keep O(1) live records.
    [background] events (e.g. periodic IGMP queries) do not keep
    {!run} alive — see {!run}.
    @raise Invalid_argument on non-positive interval. *)

(** {2 Closure-free fast path} *)

type dispatch
(** A handler for a family of fast events — registered once (closing
    over whatever environment the family needs), then shared by every
    event of the family. *)

val dispatch : (int -> int -> int -> int -> int -> unit) -> dispatch
(** Make a dispatch from a 5-int handler. The meaning of the ints is
    the family's private contract. *)

val schedule_fast :
  t ->
  ?background:bool ->
  time:float ->
  dispatch ->
  int -> int -> int -> int -> int ->
  unit
(** [schedule_fast t ~time d a b c x y] enqueues an event that runs
    as [d a b c x y] — same ordering and background semantics as
    {!schedule_at}, but the event is a flat record of immediates: no
    closure is allocated per event.
    @raise Invalid_argument if [time < now t]. *)

val pending : (* lint: allow unused-export: introspection counter, events queued now *)
  t -> int
(** Events currently queued. *)

val pending_foreground : (* lint: allow unused-export: introspection counter, foreground events queued now *)
  t -> int
(** Non-background events currently queued. *)

(** {2 Observability} *)

val events_executed : t -> int
(** Events executed since creation. *)

val heap_high_water : (* lint: allow unused-export: introspection counter, the queue's high-water mark *)
  t -> int
(** Largest queue length ever reached — the engine's memory
    high-water mark. *)

val observe : t -> Obs.Metrics.t -> unit
(** Publish both counters ([engine/events_executed],
    [engine/heap_high_water]) into a metric registry. Idempotent. *)

val run : ?until:float -> t -> unit
(** Without [until]: execute events in time order until no foreground
    event remains (quiescence — periodic background work alone does not
    keep the run alive). With [until]: execute every event, background
    included, scheduled up to [until]; later events remain queued and
    the clock settles at [until]. Each iteration is a single
    locate-and-pop on the radix heap — no peek-then-pop double
    search. *)

val step : t -> bool
(** Execute exactly the next event; [false] if none. *)
