type severity = Rule.severity = Error | Warn

type violation = {
  path : string;
  line : int;
  rule : string;
  severity : severity;
  message : string;
}

let to_string { path; line; rule; message; _ } =
  Printf.sprintf "%s:%d: [%s] %s" path line rule message

let compare_violations a b =
  Rule.compare_findings
    {
      Rule.path = a.path;
      line = a.line;
      rule = a.rule;
      severity = a.severity;
      message = a.message;
    }
    {
      Rule.path = b.path;
      line = b.line;
      rule = b.rule;
      severity = b.severity;
      message = b.message;
    }

let lines s = String.split_on_char '\n' s

let path_contains path needle =
  let n = String.length path and m = String.length needle in
  let rec scan i =
    if i + m > n then false else String.sub path i m = needle || scan (i + 1)
  in
  scan 0

let in_protocols path = path_contains path "protocols"
let in_eventsim path = path_contains path "eventsim"
let in_exec path = path_contains path "exec"
let in_obs path = path_contains path "obs"
let in_topology path = path_contains path "topology"
let in_netgraph path = path_contains path "netgraph"
let in_lib path = path_contains path "lib"

(* ---- rule ids ---- *)

let rule_poly_compare = "poly-compare"
let rule_hashtbl_find = "hashtbl-find"
let rule_failwith = "failwith-hot-path"
let rule_mli = "mli-coverage"
let rule_dune_flags = "dune-strict-flags"
let rule_raw_transmit = "raw-transmit"
let rule_raw_fault = "raw-fault"
let rule_domain_safety = "domain-safety"
let rule_hashtbl_iter_order = "hashtbl-iter-order"
let rule_wallclock = "wallclock-outside-obs"
let rule_unseeded_random = "unseeded-random"
let rule_catchall = "catchall-exn"
let rule_physical_eq = "physical-eq"
let rule_exec_capture = "exec-capture"
let rule_graph_freeze = "graph-freeze"
let rule_raw_engine_queue = "raw-engine-queue"
let rule_parse_failure = "parse-failure"
let rule_unused_suppression = "unused-suppression"
let rule_unused_export = "unused-export"

(* ---- AST rule implementations ---- *)

open Parsetree

let emit_at (ctx : Rule.ctx) loc msg = ctx.emit ~line:(Ast_scan.line_of loc) msg

let sort_heads = [ "List.sort"; "List.sort_uniq"; "List.stable_sort" ]

let ast_poly_compare (ctx : Rule.ctx) structure =
  let message pat =
    Printf.sprintf
      "polymorphic comparator (%s); use Int.compare or a dedicated comparator"
      pat
  in
  Ast_scan.iter_exprs structure (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } when Ast_scan.ident_path txt = "Stdlib.compare"
        ->
        emit_at ctx loc (message "Stdlib.compare")
      | Pexp_apply _ -> (
        match Ast_scan.head_of_apply e with
        | Some (h, _) when List.mem h sort_heads -> (
          match Ast_scan.apply_args e with
          | (_, arg) :: _ -> (
            match (Ast_scan.strip arg).pexp_desc with
            | Pexp_ident { txt = Longident.Lident "compare"; loc } ->
              emit_at ctx loc (message (h ^ " compare"))
            | _ -> ())
          | [] -> ())
        | _ -> ())
      | _ -> ());
  (* [let compare = compare] — (re)binding the polymorphic comparator,
     typically to satisfy a set/map functor. *)
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match (vb.pvb_pat.ppat_desc, (Ast_scan.strip vb.pvb_expr).pexp_desc) with
          | ( Ppat_var { txt = "compare"; _ },
              Pexp_ident { txt = Longident.Lident "compare"; _ } ) ->
            emit_at ctx vb.pvb_loc (message "let compare = compare")
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it structure

let ast_ident_rule targets message (ctx : Rule.ctx) structure =
  Ast_scan.iter_exprs structure (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
        let p = Ast_scan.ident_path txt in
        if List.mem p targets then emit_at ctx loc (message p)
      | _ -> ())

let ast_hashtbl_find =
  ast_ident_rule [ "Hashtbl.find" ] (fun _ ->
      "Hashtbl.find raises on absent keys; use Hashtbl.find_opt")

let ast_failwith =
  ast_ident_rule [ "failwith" ] (fun _ ->
      "failwith in a protocol hot path; return a result or use a typed \
       invalid_arg at the API boundary")

(* Both spellings: modules are referenced short ([Netsim.transmit])
   inside lib/eventsim's friends and qualified elsewhere. *)
let raw_transmit_targets = [ "Netsim.transmit"; "Eventsim.Netsim.transmit" ]

let ast_raw_transmit =
  ast_ident_rule raw_transmit_targets (fun p ->
      Printf.sprintf
        "raw %s outside the protocol layer bypasses the reliable control \
         transport and drop accounting; go through a protocol agent"
        p)

(* The topology-mutation primitives: scripted failures go through
   Eventsim.Faults (a schedule the chaos engine can replay and shrink);
   calling the primitives directly skips the schedule's counters and
   its foreground-event liveness guarantee. Both spellings, as with
   raw_transmit_targets. *)
let raw_fault_targets =
  List.concat_map
    (fun f -> [ "Netsim." ^ f; "Eventsim.Netsim." ^ f ])
    [
      "fail_link"; "fail_links"; "fail_node";
      "restore_link"; "restore_links"; "restore_node";
    ]

let ast_raw_fault =
  ast_ident_rule raw_fault_targets (fun p ->
      Printf.sprintf
        "raw %s outside lib/eventsim bypasses the fault schedule; script \
         failures through Eventsim.Faults so counters, replay and \
         shrinking see them"
        p)

let domain_safety_prefixes = [ "Atomic."; "Mutex."; "Condition." ]

let has_prefix s pre =
  let m = String.length pre in
  String.length s >= m && String.sub s 0 m = pre

let ast_domain_safety (ctx : Rule.ctx) structure =
  Ast_scan.iter_exprs structure (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
        let p = Ast_scan.ident_path txt in
        let hit =
          if p = "Domain.spawn" then Some "Domain.spawn"
          else
            List.find_opt (fun pre -> has_prefix p pre) domain_safety_prefixes
        in
        Option.iter
          (fun pre ->
            emit_at ctx loc
              (Printf.sprintf
                 "%s outside lib/exec; concurrency is confined to the Exec \
                  layer — hand the work to Exec.Pool instead"
                 pre))
          hit
      | _ -> ());
  if in_lib ctx.source.path then
    List.iter
      (fun (name, line) ->
        ctx.emit ~line
          (Printf.sprintf
             "top-level mutable state (%s) is shared across worker domains; \
              allocate it per task (or mark the module exec-only)"
             name))
      (Ast_scan.toplevel_mutable_bindings structure)

(* The event kernel owns its queue: every schedule inside the
   simulation layer goes through Engine, which is what keeps the
   clock, the foreground count, the executed counter and the
   high-water mark truthful. A Heap or Radix_heap frontier anywhere
   else in lib/eventsim is a second scheduler the engine cannot see —
   exactly the shape the event-kernel overhaul removed. Both
   spellings, as with raw_transmit_targets. *)
let engine_queue_prefixes =
  [
    "Heap."; "Scmp_util.Heap.";
    "Radix_heap."; "Scmp_util.Radix_heap.";
  ]

let ast_raw_engine_queue (ctx : Rule.ctx) structure =
  Ast_scan.iter_exprs structure (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
        let p = Ast_scan.ident_path txt in
        Option.iter
          (fun _ ->
            emit_at ctx loc
              (Printf.sprintf
                 "%s inside lib/eventsim is a second event queue the engine \
                  cannot account for; schedule through Eventsim.Engine"
                 p))
          (List.find_opt (fun pre -> has_prefix p pre) engine_queue_prefixes)
      | _ -> ())

(* D1 — Hashtbl iteration order feeding observable output. *)

let is_hashtbl_fold e =
  match Ast_scan.head_of_apply e with
  | Some ("Hashtbl.fold", _) -> true
  | _ -> false

let is_sort_application e =
  match Ast_scan.head_of_apply e with
  | Some (h, _) -> List.mem h sort_heads
  | _ -> false

let expr_has_cons e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it x ->
          (match x.pexp_desc with
          | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it x);
    }
  in
  it.expr it e;
  !found

let obs_emission_target p =
  has_prefix p "Obs." || has_prefix p "Metrics." || has_prefix p "Series."
  || has_prefix p "Report."

let ast_hashtbl_iter_order (ctx : Rule.ctx) structure =
  (* First pass: folds whose result flows straight into a sort — the
     sanctioned shape — keyed by location. *)
  let sorted = ref [] in
  let mark e = sorted := e.pexp_loc :: !sorted in
  Ast_scan.iter_exprs structure (fun e ->
      match Ast_scan.head_of_apply e with
      | Some ("|>", _) -> (
        match Ast_scan.apply_args e with
        | [ (_, lhs); (_, rhs) ]
          when is_hashtbl_fold lhs && is_sort_application rhs ->
          mark lhs
        | _ -> ())
      | Some (h, _) when List.mem h sort_heads ->
        List.iter
          (fun (_, a) ->
            let a = Ast_scan.strip a in
            if is_hashtbl_fold a then mark a)
          (Ast_scan.apply_args e)
      | _ -> ());
  Ast_scan.iter_exprs structure (fun e ->
      match Ast_scan.head_of_apply e with
      | Some ("Hashtbl.fold", loc) when not (List.mem e.pexp_loc !sorted) -> (
        match Ast_scan.apply_args e with
        | (_, f) :: _ -> (
          match Ast_scan.fun_body f with
          | Some body when expr_has_cons body ->
            emit_at ctx loc
              "Hashtbl.fold builds a list in hash-iteration order; sort the \
               result (e.g. |> List.sort Int.compare) or iterate sorted keys"
          | _ -> ())
        | [] -> ())
      | Some ("Hashtbl.iter", loc) -> (
        match Ast_scan.apply_args e with
        | (_, f) :: _ -> (
          match Ast_scan.fun_body f with
          | Some body ->
            let obs = ref None in
            Ast_scan.iter_idents body (fun p _ ->
                if !obs = None && obs_emission_target p then obs := Some p);
            let accumulates = ref false in
            Ast_scan.iter_subexprs body (fun x ->
                match Ast_scan.head_of_apply x with
                | Some (":=", _) when expr_has_cons x -> accumulates := true
                | _ -> ());
            let accumulates = !accumulates in
            if !obs <> None then
              emit_at ctx loc
                (Printf.sprintf
                   "Hashtbl.iter emits into %s in hash-iteration order; \
                    iterate sorted keys so reports stay deterministic"
                   (Option.value !obs ~default:"Obs"))
            else if accumulates then
              emit_at ctx loc
                "Hashtbl.iter accumulates a list (:= with ::) in \
                 hash-iteration order; collect then sort, or iterate sorted \
                 keys"
          | None -> ())
        | [] -> ())
      | _ -> ())

(* D2 — wallclock reads outside lib/obs. *)
let ast_wallclock =
  ast_ident_rule [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ] (fun p ->
      Printf.sprintf
        "%s reads the wall clock outside lib/obs; go through Obs.Clock so \
         wallclock data stays flagged and excluded from deterministic reports"
        p)

(* D3 — Stdlib Random instead of the repo's seeded Prng streams. *)
let ast_unseeded_random (ctx : Rule.ctx) structure =
  Ast_scan.iter_exprs structure (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
        let p = Ast_scan.ident_path txt in
        if p = "Random.self_init" then
          emit_at ctx loc
            "Random.self_init seeds from the environment; every stochastic \
             input must come from an explicitly seeded Scmp_util.Prng stream"
        else if has_prefix p "Random." then
          emit_at ctx loc
            (Printf.sprintf
               "%s draws from the global Stdlib.Random state; use a seeded \
                Scmp_util.Prng stream (split per task) instead"
               p)
      | _ -> ())

(* D4 — catch-all exception handlers. *)
let ast_catchall (ctx : Rule.ctx) structure =
  let rec catchall p =
    match p.ppat_desc with
    | Ppat_any -> Some None
    | Ppat_var { txt; _ } -> Some (Some txt)
    | Ppat_alias (inner, { txt; _ }) -> (
      match catchall inner with Some _ -> Some (Some txt) | None -> None)
    | Ppat_or (a, b) -> (
      match catchall a with Some v -> Some v | None -> catchall b)
    | _ -> None
  in
  Ast_scan.iter_exprs structure (fun e ->
      match e.pexp_desc with
      | Pexp_try (_, cases) ->
        List.iter
          (fun case ->
            if case.pc_guard = None then
              match catchall case.pc_lhs with
              | Some None ->
                emit_at ctx case.pc_lhs.ppat_loc
                  "catch-all handler (with _ ->) can swallow \
                   Exec.Pool.Task_error and invariant failures; match the \
                   exceptions you mean or re-raise"
              | Some (Some v) when not (Ast_scan.expr_mentions case.pc_rhs v)
                ->
                emit_at ctx case.pc_lhs.ppat_loc
                  (Printf.sprintf
                     "catch-all handler binds %s but drops it; match the \
                      exceptions you mean, or re-raise / wrap the exception"
                     v)
              | _ -> ())
          cases
      | _ -> ())

(* D5 — physical equality on structural values. *)
let ast_physical_eq (ctx : Rule.ctx) structure =
  Ast_scan.iter_exprs structure (fun e ->
      match Ast_scan.head_of_apply e with
      | Some (("==" | "!=") as op, loc) ->
        emit_at ctx loc
          (Printf.sprintf
             "physical equality (%s) on structural values compares identity, \
              not contents; use =/<> (or suppress where identity is the \
              point)"
             op)
      | _ -> ())

(* D6 — mutable state captured by closures handed to the Exec layer. *)

(* The task-dispatch entry points: closures passed here run on worker
   domains. ([Pool.with_pool]'s callback runs on the submitter, so it
   is deliberately absent.) *)
let exec_head p = p = "Pool.map" || p = "Exec.Pool.map"

let mutators = [ ":="; "incr"; "decr" ]

let table_mutators =
  [
    "Hashtbl.add";
    "Hashtbl.replace";
    "Hashtbl.remove";
    "Hashtbl.reset";
    "Hashtbl.clear";
    "Hashtbl.filter_map_inplace";
  ]

let ast_exec_capture (ctx : Rule.ctx) structure =
  let toplevel =
    List.map fst (Ast_scan.toplevel_mutable_bindings structure)
  in
  Ast_scan.iter_exprs structure (fun e ->
      match Ast_scan.head_of_apply e with
      | Some (h, loc) when exec_head h ->
        List.iter
          (fun (_, arg) ->
            let arg = Ast_scan.strip arg in
            if Ast_scan.is_function arg then begin
              let free = Ast_scan.free_names arg in
              (match List.find_opt (fun v -> List.mem v free) toplevel with
              | Some v ->
                emit_at ctx loc
                  (Printf.sprintf
                     "task closure passed to %s captures top-level mutable \
                      %s; worker domains would share it — allocate per task"
                     h v)
              | None -> ());
              (* mutation of a captured variable inside the task body *)
              let flagged = ref [] in
              Ast_scan.iter_subexprs arg (fun x ->
                  match Ast_scan.head_of_apply x with
                  | Some (m, _)
                    when List.mem m mutators || List.mem m table_mutators -> (
                    match Ast_scan.apply_args x with
                    | (_, first) :: _ -> (
                      match (Ast_scan.strip first).pexp_desc with
                      | Pexp_ident { txt = Longident.Lident v; _ }
                        when List.mem v free && not (List.mem (m, v) !flagged)
                        ->
                        flagged := (m, v) :: !flagged;
                        emit_at ctx loc
                          (Printf.sprintf
                             "task closure passed to %s mutates captured %s \
                              (%s); tasks must not share mutable state with \
                              the submitter"
                             h v m)
                      | _ -> ())
                    | [] -> ())
                  | _ -> ())
            end)
          (Ast_scan.apply_args e)
      | _ -> ())

(* ---- graph-freeze ----

   The two-phase graph API's discipline: [Graph.Builder] is the only
   mutable form of a graph and lives strictly inside topology
   construction — lib/topology generators and lib/netgraph itself;
   every other layer consumes the frozen CSR [Graph.t]. A builder
   reference anywhere else is a mutability leak: state the frozen
   snapshot cannot see, edge ids not yet assigned, tie-breaking no
   golden can pin. Matched on the dotted path, so unrelated [Builder]
   submodules stay clean; the common [module G = Netgraph.Graph] alias
   is recognized. *)
let graph_builder_path p =
  let rec consecutive = function
    | ("Graph" | "G") :: "Builder" :: _ -> true
    | _ :: tl -> consecutive tl
    | [] -> false
  in
  consecutive (String.split_on_char '.' p)

let graph_freeze_message p =
  Printf.sprintf
    "%s outside topology construction: builders are the graph's only \
     mutable form and stay in lib/topology / lib/netgraph; freeze and \
     pass the immutable Graph.t"
    p

let ast_graph_freeze (ctx : Rule.ctx) structure =
  Ast_scan.iter_exprs structure (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
        let p = Ast_scan.ident_path txt in
        if graph_builder_path p then emit_at ctx loc (graph_freeze_message p)
      | _ -> ())

(* ---- the registry ---- *)

let registry : Rule.t list =
  [
    Rule.make ~id:rule_poly_compare ~severity:Error
      ~doc:
        "no polymorphic compare in sorting/dedup idioms on node, edge or \
         message values"
      ~scope:Rule.everywhere ~ast:ast_poly_compare;
    Rule.make ~id:rule_hashtbl_find ~severity:Error
      ~doc:"no exception-raising Hashtbl.find; use find_opt"
      ~scope:Rule.everywhere ~ast:ast_hashtbl_find;
    Rule.make ~id:rule_failwith ~severity:Error
      ~doc:"no failwith inside lib/protocols (event-loop hot path)"
      ~scope:in_protocols ~ast:ast_failwith;
    Rule.make ~id:rule_raw_transmit ~severity:Error
      ~doc:"no raw Netsim.transmit outside the protocol layer"
      ~scope:(fun p -> not (in_protocols p || in_eventsim p))
      ~ast:ast_raw_transmit;
    Rule.make ~id:rule_raw_fault ~severity:Error
      ~doc:
        "no raw Netsim fault/restore primitives outside lib/eventsim; \
         script failures through Eventsim.Faults"
      ~scope:(fun p -> not (in_eventsim p))
      ~ast:ast_raw_fault;
    Rule.make ~id:rule_domain_safety ~severity:Error
      ~doc:
        "concurrency primitives stay in lib/exec; no shared top-level \
         mutable state in library modules"
      ~scope:(fun p -> not (in_exec p))
      ~ast:ast_domain_safety;
    Rule.make ~id:rule_hashtbl_iter_order ~severity:Warn
      ~doc:
        "no Hashtbl iteration order leaking into reports or unsorted result \
         lists"
      ~scope:Rule.everywhere ~ast:ast_hashtbl_iter_order;
    Rule.make ~id:rule_wallclock ~severity:Error
      ~doc:"wallclock reads go through Obs.Clock only"
      ~scope:(fun p -> not (in_obs p))
      ~ast:ast_wallclock;
    Rule.make ~id:rule_unseeded_random ~severity:Error
      ~doc:"no Stdlib.Random; stochastic inputs come from seeded Prng streams"
      ~scope:Rule.everywhere ~ast:ast_unseeded_random;
    Rule.make ~id:rule_catchall ~severity:Warn
      ~doc:"no catch-all exception handlers that swallow failures"
      ~scope:Rule.everywhere ~ast:ast_catchall;
    Rule.make ~id:rule_physical_eq ~severity:Warn
      ~doc:"no ==/!= on structural values" ~scope:Rule.everywhere
      ~ast:ast_physical_eq;
    Rule.make ~id:rule_exec_capture ~severity:Warn
      ~doc:"task closures handed to Exec must not capture mutable state"
      ~scope:Rule.everywhere ~ast:ast_exec_capture;
    Rule.make ~id:rule_graph_freeze ~severity:Error
      ~doc:
        "Graph.Builder stays inside topology construction \
         (lib/topology, lib/netgraph); every other layer consumes the \
         frozen Graph.t"
      ~scope:(fun p -> not (in_topology p || in_netgraph p))
      ~ast:ast_graph_freeze;
    Rule.make ~id:rule_raw_engine_queue ~severity:Error
      ~doc:
        "the engine owns the event queue: no direct Heap or \
         Radix_heap frontier inside lib/eventsim outside engine.ml"
      ~scope:(fun p ->
        in_eventsim p && not (has_prefix (Filename.basename p) "engine."))
      ~ast:ast_raw_engine_queue;
  ]

let all_rules =
  List.map (fun (r : Rule.t) -> r.Rule.id) registry
  @ [
      rule_mli;
      rule_dune_flags;
      rule_unused_export;
      rule_parse_failure;
      rule_unused_suppression;
    ]

let severity_of_rule rule =
  match List.find_opt (fun (r : Rule.t) -> r.Rule.id = rule) registry with
  | Some r -> r.Rule.severity
  | None -> Error

let doc_of_rule rule =
  match List.find_opt (fun (r : Rule.t) -> r.Rule.id = rule) registry with
  | Some r -> Some r.Rule.doc
  | None ->
    List.assoc_opt rule
      [
        (rule_mli, "every lib/**/*.ml carries a .mli interface");
        (rule_dune_flags, "library dune files carry the strict warning flags");
        ( rule_unused_export,
          "every lib/**/*.mli value is used by another unit under lib, bin, \
           bench, benchmark or examples" );
        (rule_parse_failure, "the file did not parse; no rule ran on it");
        (rule_unused_suppression, "an allow-suppression marker excuses no finding");
      ]

(* ---- suppression markers ---- *)

type marker = { m_line : int; m_rule : string; mutable m_used : bool }

let is_rule_char = function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false

let markers_of_line ~line raw =
  let tag = "lint: allow " in
  let n = String.length raw and m = String.length tag in
  let rec scan i acc =
    if i + m > n then acc
    else if String.sub raw i m = tag then begin
      let j = ref (i + m) in
      while !j < n && is_rule_char raw.[!j] do incr j done;
      let rule = String.sub raw (i + m) (!j - i - m) in
      if rule = "" then scan (i + 1) acc
      else scan !j ({ m_line = line; m_rule = rule; m_used = false } :: acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

let markers_of raw_lines =
  let out = ref [] in
  Array.iteri
    (fun idx raw -> out := markers_of_line ~line:(idx + 1) raw @ !out)
    raw_lines;
  List.rev !out

let suppressed markers (v : violation) =
  match
    List.find_opt (fun mk -> mk.m_line = v.line && mk.m_rule = v.rule) markers
  with
  | Some mk ->
    mk.m_used <- true;
    true
  | None -> false

(* A marker that excused nothing is itself a finding (only meaningful
   over the full rule set). *)
let unused_markers ~path markers =
  List.filter_map
    (fun mk ->
      if mk.m_used then None
      else
        Some
          {
            path;
            line = mk.m_line;
            rule = rule_unused_suppression;
            severity = Error;
            message =
              (if List.mem mk.m_rule all_rules then
                 Printf.sprintf
                   "lint: allow %s matches no finding on this line; drop the \
                    stale suppression"
                   mk.m_rule
               else Printf.sprintf "lint: allow %s names an unknown rule" mk.m_rule);
          })
    markers

(* ---- per-file scan ---- *)

let selected ?rules ?max_severity id =
  (match rules with None -> true | Some ids -> List.mem id ids)
  &&
  match max_severity with
  | Some Error -> severity_of_rule id = Error
  | Some Warn | None -> true

(* The findings for one [.ml], with its suppression markers — [None]
   when the file does not parse. Such a file cannot build under the
   strict flags, so it gets exactly one [parse-failure] finding and no
   rule runs on it: no source rule, no mli-coverage, no marker audit. *)
let parse_failure path =
  {
    path;
    line = 1;
    rule = rule_parse_failure;
    severity = Error;
    message = "file does not parse; no lint rule ran on it";
  }

let scan_source ?rules ?max_severity ~path src =
  match Ast_scan.parse ~path src with
  | None ->
    ( (if selected ?rules ?max_severity rule_parse_failure then
         [ parse_failure path ]
       else []),
      None )
  | Some ast ->
    let raw_lines = Array.of_list (lines src) in
    let source = { Rule.path; raw_lines; ast } in
    let markers = markers_of raw_lines in
    let out = ref [] in
    List.iter
      (fun (r : Rule.t) ->
        if selected ?rules ?max_severity r.Rule.id then
          Rule.run r
            {
              Rule.source;
              emit =
                (fun ~line message ->
                  out :=
                    {
                      path;
                      line;
                      rule = r.Rule.id;
                      severity = r.Rule.severity;
                      message;
                    }
                    :: !out);
            })
      registry;
    let findings = List.filter (fun v -> not (suppressed markers v)) !out in
    (List.sort compare_violations findings, Some markers)

let scan_ml ~path src = fst (scan_source ~path src)

(* [;] starts a line comment in a dune file: a flag mentioned only in a
   comment does not count. *)
let scan_dune ~path src =
  let code l =
    match String.index_opt l ';' with Some i -> String.sub l 0 i | None -> l
  in
  let has_warn_error =
    List.exists (fun l -> path_contains (code l) "-warn-error") (lines src)
  in
  if has_warn_error then []
  else
    [
      {
        path;
        line = 1;
        rule = rule_dune_flags;
        severity = Error;
        message = "library dune file lacks the strict warnings-as-errors flags";
      };
    ]

(* ---- filesystem walk ---- *)

let is_dir p = try Sys.is_directory p with Sys_error _ -> false

let rec walk p acc =
  if is_dir p then
    Array.fold_left
      (fun acc name ->
        if name = "" || name.[0] = '.' || name = "_build" then acc
        else walk (Filename.concat p name) acc)
      acc (Sys.readdir p)
  else p :: acc

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let has_suffix s suf =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let under_lib path =
  path = "lib"
  || has_suffix (Filename.dirname path) "lib"
  || (String.length path >= 4 && String.sub path 0 4 = "lib/")
  || path_contains path "/lib/"

(* ---- unused-export ---- *)

(* The directories whose code counts as a caller of a library value;
   test/ is not among them. *)
let consumer_dirs = [ "lib"; "bin"; "bench"; "benchmark"; "examples" ]

(* The rule over one scan root named [lib]: every top-level [val] of
   its [.mli] files must be named by an identifier in some other
   unit's [.ml] under the consumer directories beside it. Names are
   matched on their last component only ([M.f], [N.f] and a bare [f]
   under [open] or [include] all count for [f]), so aliases, local
   opens, includes and first-class modules need no resolution: the
   rule can miss an unused value that shares its name with a used one,
   never report one that is used. Returns the number of interfaces
   read and the findings, markers applied and audited. *)
let unused_exports ~audit lib_root =
  let parent = Filename.dirname lib_root in
  let beside d =
    if d = "lib" then lib_root
    else if parent = Filename.current_dir_name then d
    else Filename.concat parent d
  in
  let users = Hashtbl.create 4096 in
  List.iter
    (fun d ->
      let dir = beside d in
      if is_dir dir then
        List.iter
          (fun p ->
            if has_suffix p ".ml" then
              match Ast_scan.parse ~path:p (read_file p) with
              | None -> ()
              | Some ast ->
                Ast_scan.value_names ast (fun name ->
                    match Hashtbl.find_opt users name with
                    | Some (q :: _) when q = p -> ()
                    | Some qs -> Hashtbl.replace users name (p :: qs)
                    | None -> Hashtbl.replace users name [ p ]))
          (List.sort String.compare (walk dir [])))
    consumer_dirs;
  let mlis =
    List.filter (fun p -> has_suffix p ".mli") (walk lib_root [])
    |> List.sort String.compare
  in
  let check path =
    let own = Filename.remove_extension path ^ ".ml" in
    let src = read_file path in
    match Ast_scan.parse_interface ~path src with
    | None -> [ parse_failure path ]
    | Some signature ->
      let markers = markers_of (Array.of_list (lines src)) in
      let used name =
        match Hashtbl.find_opt users name with
        | Some files -> List.exists (fun f -> f <> own) files
        | None -> false
      in
      let findings =
        List.filter_map
          (fun (name, line) ->
            let v =
              {
                path;
                line;
                rule = rule_unused_export;
                severity = Error;
                message =
                  Printf.sprintf
                    "%s is exported but no other unit under %s uses it; \
                     delete it, or drop it from the interface"
                    name
                    (String.concat ", " consumer_dirs);
              }
            in
            if used name || suppressed markers v then None else Some v)
          (Ast_scan.toplevel_vals signature)
      in
      findings @ if audit then unused_markers ~path markers else []
  in
  (List.length mlis, List.concat_map check mlis)

type summary = {
  roots : string list;
  files_scanned : int;
  findings : violation list;
  wall_s : float;
}

let scan ?rules ?max_severity roots =
  let audit = rules = None && max_severity = None in
  let run () =
    let files = List.concat_map (fun r -> walk r []) roots in
    let files = List.sort String.compare files in
    let scanned = ref 0 in
    let out = ref [] in
    let push vs = out := List.rev_append vs !out in
    List.iter
      (fun p ->
        if has_suffix p ".ml" then begin
          incr scanned;
          let src = read_file p in
          let findings, markers = scan_source ?rules ?max_severity ~path:p src in
          push findings;
          match markers with
          | None -> ()
          | Some markers ->
          (* mli-coverage: every library module carries an interface *)
          let mli_missing =
            under_lib p
            && (not (Sys.file_exists (p ^ "i")))
            && selected ?rules ?max_severity rule_mli
          in
          let mli_findings =
            if mli_missing then
              List.filter
                (fun v -> not (suppressed markers v))
                [
                  {
                    path = p;
                    line = 1;
                    rule = rule_mli;
                    severity = Error;
                    message = "library module has no .mli interface";
                  };
                ]
            else []
          in
          push mli_findings;
          if audit then push (unused_markers ~path:p markers)
        end
        else if
          Filename.basename p = "dune" && under_lib p
          && selected ?rules ?max_severity rule_dune_flags
        then begin
          incr scanned;
          push (scan_dune ~path:p (read_file p))
        end)
      files;
    if selected ?rules ?max_severity rule_unused_export then
      List.iter
        (fun r ->
          if Filename.basename r = "lib" && is_dir r then begin
            let mlis, findings = unused_exports ~audit r in
            scanned := !scanned + mlis;
            push findings
          end)
        roots;
    (List.sort compare_violations !out, !scanned)
  in
  let (findings, files_scanned), wall_s = Obs.Clock.time run in
  { roots; files_scanned; findings; wall_s }

(* ---- machine-readable report (scmp-lint/1) ---- *)

let schema = "scmp-lint/1"

let to_json ?(wallclock = false) s =
  let finding v =
    Obs.Json.Obj
      [
        ("path", Obs.Json.String v.path);
        ("line", Obs.Json.Int v.line);
        ("rule", Obs.Json.String v.rule);
        ("severity", Obs.Json.String (Rule.severity_to_string v.severity));
        ("message", Obs.Json.String v.message);
      ]
  in
  let errors, warnings =
    List.fold_left
      (fun (e, w) v ->
        match v.severity with Error -> (e + 1, w) | Warn -> (e, w + 1))
      (0, 0) s.findings
  in
  Obs.Json.Obj
    ([
       ("schema", Obs.Json.String schema);
       ("roots", Obs.Json.List (List.map (fun r -> Obs.Json.String r) s.roots));
       ( "rules",
         Obs.Json.Obj
           (List.map
              (fun id ->
                ( id,
                  Obs.Json.String
                    (Rule.severity_to_string (severity_of_rule id)) ))
              all_rules) );
       ("files_scanned", Obs.Json.Int s.files_scanned);
       ( "summary",
         Obs.Json.Obj
           [
             ("total", Obs.Json.Int (List.length s.findings));
             ("errors", Obs.Json.Int errors);
             ("warnings", Obs.Json.Int warnings);
           ] );
       ("findings", Obs.Json.List (List.map finding s.findings));
     ]
    @
    if wallclock then
      [
        ( "wallclock",
          Obs.Json.Obj [ ("lint/scan_s", Obs.Json.Float s.wall_s) ] );
      ]
    else [])

(* ---- baseline ---- *)

(* Pre-existing Warn-level findings, keyed (path, rule) with
   multiplicity: line numbers drift with every edit, so the diff
   excuses *as many* findings per key as the baseline recorded, never
   which exact lines. Error findings are never excused. *)
type baseline = (string * string, int) Hashtbl.t

let baseline_of_json json : (baseline, string) result =
  match Obs.Json.mem "schema" json with
  | Some (Obs.Json.String s) when s = schema -> (
    match Obs.Json.mem "findings" json with
    | Some (Obs.Json.List items) ->
      let tbl = Hashtbl.create 16 in
      let bad = ref None in
      List.iter
        (fun item ->
          match
            (Obs.Json.mem "path" item, Obs.Json.mem "rule" item)
          with
          | Some (Obs.Json.String path), Some (Obs.Json.String rule) ->
            let key = (path, rule) in
            let n =
              match Hashtbl.find_opt tbl key with Some n -> n | None -> 0
            in
            Hashtbl.replace tbl key (n + 1)
          | _ -> bad := Some "baseline finding lacks path/rule strings")
        items;
      (match !bad with None -> Stdlib.Ok tbl | Some e -> Stdlib.Error e)
    | _ -> Stdlib.Error "baseline lacks a findings array")
  | _ -> Stdlib.Error (Printf.sprintf "baseline is not a %s document" schema)

let baseline_of_string s =
  match Obs.Json.of_string s with
  | Stdlib.Error e -> Stdlib.Error (Printf.sprintf "baseline JSON: %s" e)
  | Stdlib.Ok json -> baseline_of_json json

let empty_baseline () : baseline = Hashtbl.create 1

let diff_baseline (b : baseline) findings =
  let remaining = Hashtbl.copy b in
  List.filter
    (fun v ->
      match v.severity with
      | Error -> true
      | Warn -> (
        let key = (v.path, v.rule) in
        match Hashtbl.find_opt remaining key with
        | Some n when n > 0 ->
          Hashtbl.replace remaining key (n - 1);
          false
        | _ -> true))
    findings

