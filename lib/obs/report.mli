(** Run report: one named document holding a metric registry, optional
    metadata and sim-time series, serialized to a stable JSON schema.

    Schema ([scmp-report/1]):

    {v
    { "schema": "scmp-report/1",
      "name": "...",
      "meta": { ... },                    sorted by key
      "metrics": { "a/b": 3, ... },       sorted by name
      "series": [ {"name":..., "points":[[t,v],...]}, ... ]  sorted }
    v}

    With [~wallclock:false], wallclock-flagged metrics are excluded and
    same-seed runs serialize byte-identically (the determinism
    guarantee the tests enforce). *)

type t

val schema : string

val create : name:string -> unit -> t

val metrics : t -> Metrics.t
(** The report's registry; subsystems publish into it. *)

val set_meta : t -> string -> Json.t -> unit
(** Attach run metadata (topology name, seed, scale). Re-setting a key
    replaces it. *)

val add_series : t -> Series.t -> unit

val series : (* lint: allow unused-export: introspection, the series a run registered *)
  t -> Series.t list
(** In the order added. *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst]: metrics via
    {!Metrics.merge}, series appended after [dst]'s, meta keep-first
    ([dst] wins on key conflicts). [src] is left untouched. Merging
    per-cell reports in cell-index order makes the combined report
    independent of execution interleaving. *)

val to_json : ?wallclock:bool -> t -> Json.t
val to_string : ?wallclock:bool -> ?pretty:bool -> t -> string
val write : ?wallclock:bool -> ?pretty:bool -> t -> path:string -> (unit, string) result
