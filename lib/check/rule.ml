type severity = Error | Warn

let severity_to_string = function Error -> "error" | Warn -> "warn"

let severity_of_string = function
  | "error" -> Some Error
  | "warn" -> Some Warn
  | _ -> None

type finding = {
  path : string;
  line : int;
  rule : string;
  severity : severity;
  message : string;
}

let compare_findings a b =
  match String.compare a.path b.path with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match String.compare a.rule b.rule with
      | 0 -> String.compare a.message b.message
      | c -> c)
    | c -> c)
  | c -> c

type source = {
  path : string;
  raw_lines : string array;
  ast : Parsetree.structure;
}

type ctx = { source : source; emit : line:int -> string -> unit }

type t = {
  id : string;
  severity : severity;
  doc : string;
  scope : string -> bool;
  ast_check : ctx -> Parsetree.structure -> unit;
}

let make ~ast ~id ~severity ~doc ~scope =
  { id; severity; doc; scope; ast_check = ast }

let everywhere _ = true

let run rule ctx =
  if rule.scope ctx.source.path then rule.ast_check ctx ctx.source.ast
