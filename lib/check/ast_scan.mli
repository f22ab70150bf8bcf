(** Parsetree access for the lint engine.

    Thin helpers over [compiler-libs.common]: parse one [.ml] source
    into its {!Parsetree.structure} and walk it with
    {!Ast_iterator}-based visitors. Everything here is purely
    syntactic — no typing environment — so the {!Lint} rules built on
    top are heuristics with escape hatches, not proofs. *)

val parse : path:string -> string -> Parsetree.structure option
(** [None] when the source does not lex/parse ([path] only names the
    file in locations). *)

val parse_interface : path:string -> string -> Parsetree.signature option
(** {!parse} for an [.mli]. *)

val line_of : Location.t -> int
(** 1-based line of the location's start. *)

val ident_path : Longident.t -> string
(** ["Hashtbl.find"], ["Obs.Metrics.incr"], ... *)

val strip : Parsetree.expression -> Parsetree.expression
(** Unwrap type constraints, coercions and [open M in e]. *)

val head_of_apply : Parsetree.expression -> (string * Location.t) option
(** The applied function when [e] is [f a1 ... an] with [f] an
    identifier. *)

val apply_args :
  Parsetree.expression -> (Asttypes.arg_label * Parsetree.expression) list
(** The argument list of an application, [[]] otherwise. *)

val fun_body : Parsetree.expression -> Parsetree.expression option
(** Innermost body of a curried [fun]/[newtype] chain; [None] when
    the expression is not a function literal. *)

val is_function : Parsetree.expression -> bool

val iter_exprs : Parsetree.structure -> (Parsetree.expression -> unit) -> unit
(** Visit every expression of the file, parents before children. *)

val iter_subexprs :
  Parsetree.expression -> (Parsetree.expression -> unit) -> unit
(** Visit the expression and everything under it, parents first. *)

val iter_idents :
  Parsetree.expression -> (string -> Location.t -> unit) -> unit
(** Every identifier occurrence within the expression. *)

val value_names : Parsetree.structure -> (string -> unit) -> unit
(** The last component of every value identifier in the file: [f] for
    [f], [M.f] and [M.N.f] alike. *)

val toplevel_vals : Parsetree.signature -> (string * int) list
(** The [val]s (and [external]s) at the top of an interface, with the
    line each starts on, in source order. *)

val expr_mentions : Parsetree.expression -> string -> bool
(** Is the (dotted) identifier used anywhere in the expression? *)

val free_names : Parsetree.expression -> string list
(** Unqualified value identifiers used but nowhere bound inside the
    expression — an over-approximation of the free variables of a
    closure (sorted). Names bound {e anywhere} within count as bound,
    so the result can only miss captures, never invent them. *)

val toplevel_mutable_bindings : Parsetree.structure -> (string * int) list
(** Non-function top-level bindings (recursing into nested
    [module M = struct .. end]) whose right-hand side immediately
    applies [ref] or [Hashtbl.create] (nested function literals
    excluded) — [(name, line)] in source order. *)
