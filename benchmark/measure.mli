(** The measurement loop and the metric catalog.

    A measurement runs rounds of one workload back to back until
    [seconds] have passed and at least five rounds of each kind ran.
    Each round draws its round seed from {!Workload.round_seeds} with a
    stream seeded by [seed]. Untraced rounds give the end-to-end metrics:
    timings as medians over rounds or percentiles over the pooled runs,
    allocation and heap from the first five rounds, which are the same
    for a seed on every host. With [trace], each drawn round runs
    untraced and then traced; the traced rounds give the per-layer
    metrics. *)

type metric = { name : string; unit_ : string; value : float }

type outcome = {
  attempted : int;  (** Runs attempted, traced rounds included. *)
  failed : int;  (** Runs that failed their rule or a digest check. *)
  digest : string;  (** Digest of the first five untraced rounds. *)
  rounds : int;
  metrics : metric list;
      (** End-to-end metrics without [trace], per-layer ones with it. *)
  table : string;  (** Per-layer self-time table; empty without [trace]. *)
  trace : Obs.Json.t option;  (** Raw spans of the last traced round. *)
}

val measure :
  ?expected:string ->
  Workload.size ->
  Workload.t ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  outcome
(** [expected] is the digest the first five untraced rounds must
    produce. A traced round must always reproduce its untraced twin. *)
