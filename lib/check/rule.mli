(** Rule-registry framework for the {!Lint} engine.

    A rule pairs an identity (id, severity, one-line rationale, path
    scope) with an {e AST visitor} over the file's parsetree —
    syntax-aware, immune to string/comment false positives. A [.ml]
    that does not parse runs no rule; the engine reports it instead
    (rule [parse-failure]).

    [Error] findings always gate the build; [Warn] findings gate
    through the baseline diff (see {!Lint} and [docs/ANALYSIS.md]). *)

type severity = Error | Warn

val severity_to_string : severity -> string
val severity_of_string : string -> severity option

type finding = {
  path : string;
  line : int;
  rule : string;
  severity : severity;
  message : string;
}

val compare_findings : finding -> finding -> int
(** Path, then line, then rule id, then message — the canonical report
    order (deterministic output depends on it). *)

type source = {
  path : string;
  raw_lines : string array;  (** Verbatim lines (suppression markers). *)
  ast : Parsetree.structure;
}

type ctx = { source : source; emit : line:int -> string -> unit }
(** [emit] records a finding for this rule; the engine fills in path,
    rule id and severity, then applies suppression markers. *)

type t = {
  id : string;
  severity : severity;
  doc : string;
  scope : string -> bool;
  ast_check : ctx -> Parsetree.structure -> unit;
}

val make :
  ast:(ctx -> Parsetree.structure -> unit) ->
  id:string ->
  severity:severity ->
  doc:string ->
  scope:(string -> bool) ->
  t

val everywhere : string -> bool
(** The unrestricted scope. *)

val run : t -> ctx -> unit
(** Apply the rule's AST visitor to one file. Out-of-scope paths are
    skipped entirely. *)
