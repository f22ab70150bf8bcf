open Parsetree

let parse_with parser ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  (* any lex/parse error means "no AST" — the engine reports it and
     runs no rule on the file *)
  try Some (parser lexbuf) with _ -> None (* lint: allow catchall-exn *)

let parse = parse_with Parse.implementation
let parse_interface = parse_with Parse.interface

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let ident_path lid = String.concat "." (Longident.flatten lid)

(* Strip the wrappers that do not change what an expression *is*:
   type constraints, coercions, [open M in e] and extension-free
   parenthesization all forward to the payload. *)
let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> strip e
  | _ -> e

let head_of_apply e =
  match (strip e).pexp_desc with
  | Pexp_apply (f, _) -> (
    match (strip f).pexp_desc with
    | Pexp_ident { txt; loc } -> Some (ident_path txt, loc)
    | _ -> None)
  | _ -> None

let apply_args e =
  match (strip e).pexp_desc with Pexp_apply (_, args) -> args | _ -> []

(* The innermost body of a (possibly curried, possibly newtype-
   abstracted) function literal; [None] when [e] is not a function. *)
let fun_body e =
  let rec go e =
    match (strip e).pexp_desc with
    | Pexp_fun (_, _, _, body) -> Some (Option.value (go body) ~default:body)
    | Pexp_newtype (_, body) -> go body
    | _ -> None
  in
  go e

let is_function e =
  match (strip e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let iter_exprs structure f =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure

let iter_subexprs e f =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it x ->
          f x;
          Ast_iterator.default_iterator.expr it x);
    }
  in
  it.expr it e

(* Every identifier occurrence inside [e] (including [e] itself). *)
let iter_idents e f =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it x ->
          (match x.pexp_desc with
          | Pexp_ident { txt; loc } -> f (ident_path txt) loc
          | _ -> ());
          Ast_iterator.default_iterator.expr it x);
    }
  in
  it.expr it e

let value_names structure f =
  iter_exprs structure (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> f (Longident.last txt)
      | _ -> ())

let toplevel_vals signature =
  List.filter_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd -> Some (vd.pval_name.txt, line_of vd.pval_loc)
      | _ -> None)
    signature

let expr_mentions e name =
  let found = ref false in
  iter_idents e (fun p _ -> if p = name then found := true);
  !found

(* ---- binding analysis ---- *)

(* Unqualified value identifiers used by [e] but bound nowhere inside
   it — an over-approximation of the closure's free variables (any
   name bound anywhere within [e] counts as bound everywhere in it,
   which can only hide findings, never invent them). *)
let free_names e =
  let used = Hashtbl.create 16 and bound = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it x ->
          (match x.pexp_desc with
          | Pexp_ident { txt = Longident.Lident name; _ } ->
            Hashtbl.replace used name ()
          | _ -> ());
          Ast_iterator.default_iterator.expr it x);
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
            Hashtbl.replace bound txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.expr it e;
  Hashtbl.fold
    (fun name () acc -> if Hashtbl.mem bound name then acc else name :: acc)
    used []
  |> List.sort String.compare

let mutable_alloc_heads = [ "ref"; "Hashtbl.create" ]

(* Does evaluating [e] allocate shared mutable state right away?
   Nested function literals are skipped — state a closure would
   allocate later is per-call, not shared. *)
let allocates_mutable e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it x ->
          match x.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when List.mem (ident_path txt) mutable_alloc_heads ->
            found := true
          | _ -> Ast_iterator.default_iterator.expr it x);
    }
  in
  it.expr it e;
  !found

(* Top-level value bindings (including inside nested [module M =
   struct ... end]) whose right-hand side is not a function and
   allocates mutable state: the shared-across-domains globals the
   [domain-safety] rule forbids in library code. Returns
   [(name, line)] in source order. *)
let toplevel_mutable_bindings structure =
  let out = ref [] in
  let rec item i =
    match i.pstr_desc with
    | Pstr_value (_, bindings) ->
      List.iter
        (fun vb ->
          let name =
            let rec pat p =
              match p.ppat_desc with
              | Ppat_var { txt; _ } -> Some txt
              | Ppat_constraint (p, _) -> pat p
              | _ -> None
            in
            pat vb.pvb_pat
          in
          match name with
          | Some name
            when (not (is_function vb.pvb_expr))
                 && allocates_mutable vb.pvb_expr ->
            out := (name, line_of vb.pvb_loc) :: !out
          | _ -> ())
        bindings
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure items; _ }; _ } ->
      List.iter item items
    | _ -> ()
  in
  List.iter item structure;
  List.rev !out
