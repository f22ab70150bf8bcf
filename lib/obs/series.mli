(** Sim-time series: (time, value) samples in nondecreasing time order.

    The sampler is passive — callers decide when to sample (typically a
    recurring simulation event), so a series built from simulated time
    is deterministic and belongs in the comparable part of a report. *)

type t

val create : name:string -> t

val sample : t -> t:float -> float -> unit
(** Append one sample. @raise Invalid_argument if [t] precedes the
    previous sample's time. *)

val name : t -> string
val length : t -> int

val points : (* lint: allow unused-export: introspection, the samples taken *)
  t -> (float * float) list
(** Oldest first. *)

val to_json : t -> Json.t
(** [{"name": ..., "points": [[t, v], ...]}]. *)
