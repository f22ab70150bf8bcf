(** Fixed pool of worker domains with order-preserving fan-out.

    The only place in the codebase that spawns domains (the
    [domain-safety] lint rule keeps it that way). The contract that
    makes parallel runs deterministic:

    - tasks are {e isolated}: a task may not share mutable state with
      another task or with the submitter while [map] is in flight (give
      each task its own {!Obs.Metrics} registry, its own
      {!Scmp_util.Prng} stream, its own graphs);
    - results are {e ordered}: [map] returns them in submission order,
      never completion order, so reducing over the result list is
      independent of how the scheduler interleaved the work. *)

type t

exception Task_error of int * exn
(** Raised by {!map} when a task raises: the submission index of the
    failing task (the lowest one, when several fail) and its exception. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the machine's useful
    parallelism. *)

val jobs : t -> int

val map : t -> 'a list -> f:(int -> 'a -> 'b) -> 'b list
(** [map t items ~f] runs [f index item] for every item on the pool and
    blocks until all complete, returning results in submission order.
    Items beyond [jobs t] queue and run as workers free up
    (oversubscription is the normal case). If any task raises, the
    remaining tasks still run to completion — the pool stays usable —
    and then {!Task_error} carries the lowest failing index.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : (* lint: allow unused-export: lifecycle invariant, a shut-down pool refuses work *)
  t -> unit
(** Drain and join the workers. Idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** Spawn [jobs] worker domains (default {!default_jobs}), run, and
    {!shutdown} even on exceptions.
    @raise Invalid_argument if [jobs < 1]. *)
