(** Repo-specific static analysis (the [@lint] alias, [bin/scmp_lint]).

    An AST-grounded lint engine: every [.ml] is parsed with
    [compiler-libs.common] ({!Ast_scan}) and walked by the rule
    registry ({!Rule}), so rules see syntax — identifier paths,
    application shapes, handler patterns, structure items — rather
    than raw text. A file that fails to parse cannot build under the
    strict flags; it gets exactly one Error finding, rule
    [parse-failure], and no rule runs on it.

    Two rule families (catalogued in [docs/ANALYSIS.md]):

    {b Style/layering (severity Error)} — [poly-compare],
    [hashtbl-find], [failwith-hot-path], [mli-coverage],
    [dune-strict-flags], [raw-transmit], [domain-safety],
    [unused-export].

    {b Determinism & domain hazards} — the invariants behind the
    byte-identical report guarantees: [hashtbl-iter-order] (D1, Warn),
    [wallclock-outside-obs] (D2, Error), [unseeded-random] (D3,
    Error), [catchall-exn] (D4, Warn), [physical-eq] (D5, Warn),
    [exec-capture] (D6, Warn).

    A raw line containing [lint: allow <rule>] (conventionally in a
    trailing comment) exempts that line from that rule, in an [.ml] or,
    for [unused-export], an [.mli]; a marker that excuses nothing is
    itself an Error ([unused-suppression]).
    Warn-level findings gate through the committed baseline
    ([lint-baseline.json], {!diff_baseline}); Error findings always
    gate. *)

type severity = Rule.severity = Error | Warn

type violation = {
  path : string;
  line : int;
  rule : string;
  severity : severity;
  message : string;
}

val to_string : violation -> string
(** [path:line: [rule] message] — compiler-style, clickable. *)

val all_rules : string list
(** Every rule id, registry order (source rules, then tree-level
    [mli-coverage]/[dune-strict-flags]/[unused-export], then the engine
    rules [parse-failure]/[unused-suppression]). *)

val severity_of_rule : string -> severity
val doc_of_rule : string -> string option

val scan_ml : (* lint: allow unused-export: reference oracle, the source rules on one in-memory file *)
  path:string -> string -> violation list
(** Apply the source rules to one [.ml]'s contents — or, when it does
    not parse, report just that ([parse-failure]); suppression markers
    applied; sorted by path, line, rule and message. Scoped rules only fire
    on matching [path]s ([failwith-hot-path] under [protocols],
    [raw-transmit] outside [protocols]/[eventsim], [domain-safety]
    outside [exec], [wallclock-outside-obs] outside [obs]). *)

val scan_dune : (* lint: allow unused-export: reference oracle, the flags rule on one in-memory dune file *)
  path:string -> string -> violation list
(** Apply the [dune-strict-flags] rule to one library [dune] file; a
    [-warn-error] inside a [;] line comment does not count. *)

type summary = {
  roots : string list;
  files_scanned : int;
  findings : violation list;  (** Sorted, suppressions applied. *)
  wall_s : float;  (** Wall-clock scan time (via {!Obs.Clock}). *)
}

val scan :
  ?rules:string list -> ?max_severity:severity -> string list -> summary
(** Walk the given root directories (skipping [_build] and dotfiles)
    and apply every rule in scope: source rules to [*.ml], interface
    coverage and dune-flag rules to files under [lib], plus the
    unused-suppression audit. A root named [lib] also gets the
    [unused-export] pass: each top-level [val] of its [.mli] files
    must be named, by last path component, in another unit's [.ml]
    under the [lib], [bin], [bench], [benchmark] or [examples]
    directory beside it ([test] does not count). [?rules] restricts to the named rule
    ids; [?max_severity:Error] runs Error-severity rules only. The
    audit is skipped when either filter is active (a marker for a
    filtered-out rule is not "unused"). *)

val schema : string
(** ["scmp-lint/1"]. *)

val to_json : ?wallclock:bool -> summary -> Obs.Json.t
(** The stable [scmp-lint/1] document (see [docs/ARCHITECTURE.md]):
    schema, roots, rule/severity table, file count, summary counts and
    the sorted findings array. Two scans of identical sources
    serialize byte-identically; [~wallclock:true] appends the
    wall-time section (excluded by default, exactly like
    [scmp-report/1]'s wallclock split). *)

type baseline
(** Accepted pre-existing Warn findings, keyed [(path, rule)] with
    multiplicity — line numbers drift with every edit, so the diff
    excuses {e as many} findings per key as recorded, never exact
    lines. *)

val baseline_of_string : string -> (baseline, string) result
(** Parse a committed [scmp-lint/1] document (the [--json] output of a
    previous run) as a baseline. *)

val empty_baseline : unit -> baseline

val diff_baseline : baseline -> violation list -> violation list
(** The findings that gate: every Error finding, plus each Warn
    finding beyond its baseline allowance. *)
