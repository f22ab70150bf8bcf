(** In-memory span tracer for the benchmark's traced rounds.

    Spans are opened around the calls the benchmark makes into each
    layer of the library, so attribution is measured from outside the
    program. A span records its name, start, end, parent, run id, and
    the minor and major words allocated while it was open. Self time
    and self allocation (duration minus what child spans cover) are
    folded into per-name aggregates as spans close. Raw spans are kept
    until {!clear_kept}, so a long run can write a bounded trace. *)

type t

val create : unit -> t

val with_span : t option -> string -> (unit -> 'a) -> 'a
(** [with_span (Some t) name f] runs [f] inside a span named [name],
    nested under the innermost open span. With [None] it is [f ()]. *)

val attribute : t option -> string -> seconds:float -> count:int -> unit
(** Book time measured inside the library (e.g. DCDM tree compute,
    read back from a run's report) as a child of the innermost open
    span: it is added to [name]'s aggregate and subtracted from the
    parent's self time. It carries no words and is not a raw span. *)

val set_run : t option -> int -> unit
(** Run id stamped on spans opened from now on. *)

val clear_kept : t -> unit
(** Drop the raw spans kept so far; aggregates are untouched. *)

type agg = {
  mutable calls : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable self_minor : float;
  mutable self_major : float;
}

val aggregates : t -> (string * agg) list
(** Per-name aggregates, sorted by name. *)

val trace_json : t -> Obs.Json.t
(** The kept raw spans, oldest first; times are seconds from {!create}. *)
