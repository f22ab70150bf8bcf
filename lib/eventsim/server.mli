(** A k-server FIFO processing station on the event engine.

    Models computation capacity — in this reproduction, the m-router's
    network processors (§II.B: the m-router "can adopt a multiprocessor
    or a cluster computer architecture" because its tasks "can be
    performed in parallel"). Jobs queue in arrival order; up to
    [servers] of them are in service at once; a job's completion
    callback runs when its service time elapses.

    The station keeps the aggregate statistics capacity studies need:
    completions, total queueing delay, and the busy/queued instantaneous
    state. *)

type t

val create : Engine.t -> servers:int -> t
(** @raise Invalid_argument if [servers < 1]. *)

val submit : t -> service_time:float -> (unit -> unit) -> unit
(** Enqueue a job; its callback fires [service_time] after a server
    picks it up (immediately if one is idle).
    @raise Invalid_argument on negative service time. *)

val busy : (* lint: allow unused-export: introspection counter, jobs in service now *)
  t -> int
(** Jobs currently in service. *)

val queue_length : (* lint: allow unused-export: introspection counter, jobs waiting now *)
  t -> int
(** Jobs waiting for a server. *)

val completed : t -> int

val total_queueing_delay : t -> float
(** Sum over completed-or-started jobs of (service start - arrival);
    divide by {!completed} for the mean wait. *)

val max_queue_length : t -> int
(** High-water mark of the waiting queue. *)

(** {2 Observability} *)

val observe : t -> Obs.Metrics.t -> prefix:string -> unit
(** Publish the aggregate statistics: [<prefix>/completed],
    [<prefix>/max_queue], [<prefix>/total_wait_s]. Idempotent. *)
