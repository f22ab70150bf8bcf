(** Noise-aware A/B comparison of two [scmp-report/1] documents.

    Replaces absolute shell-side thresholds (which drift with host
    speed) by a paired comparison: each metric present in both reports
    gets a relative delta [(new - old) / |old|], judged against a
    per-metric tolerance band selected by the first matching glob
    rule. A metric present in the old report but absent from the new
    one is a loud failure — a renamed key must never let a gate pass
    by matching nothing. The outcome serializes to the stable
    [scmp-ab/1] schema. *)

type direction =
  | Higher_worse  (** Regression when the value grows past the band. *)
  | Lower_worse  (** Regression when the value shrinks past the band. *)
  | Both  (** Any departure from the band is a regression. *)
  | Info  (** Never gates — reported for context only. *)

type rule = {
  pattern : string;  (** Full-string glob; ['*'] matches any run. *)
  direction : direction;
  tol : float;  (** Relative tolerance band half-width. *)
}

type status = Within | Regressed | Improved | Informational | Added | Missing

type delta = {
  metric : string;
  old_value : float option;
  new_value : float option;
  rel : float option;  (** [(new - old) / max |old| eps]; absent unless paired. *)
  status : status;
}

type outcome = {
  deltas : delta list;  (** Sorted by metric name. *)
  compared : int;
  within : int;
  regressed : int;
  improved : int;
  informational : int;
  missing : int;
  added : int;
}

val passed : outcome -> bool
(** No regressions and no missing metrics. *)

val profile_of_string : string -> (rule list, string) result
(** ["default"] or ["bench"]. *)

val glob_match : (* lint: allow unused-export: reference oracle, the metric-name glob alone *)
  string -> string -> bool
(** [glob_match pattern s] — full-string match where ['*'] matches any
    possibly-empty substring. *)

val metrics : Obs.Json.t -> ((string * float) list, string) result
(** Check the [scmp-report/1] schema and extract every numeric metric,
    in document order — the one way a report is read. *)

val metric_value : Obs.Json.t -> string -> (float, string) result
(** Look up one metric by key; the error names the missing key so a
    gate can never silently match nothing. *)

val compare_reports :
  ?rules:rule list -> old_json:Obs.Json.t -> new_json:Obs.Json.t -> unit ->
  (outcome, string) result
(** Validate both schemas, extract metrics, and compare. *)

val schema : string
(** ["scmp-ab/1"]. *)

val status_label : status -> string

val to_json : old_name:string -> new_name:string -> outcome -> Obs.Json.t
(** Serialize to the [scmp-ab/1] document shape: schema, the two
    input names, a summary object, a pass/fail verdict and the full
    per-metric delta list. *)
