(* Noise-aware A/B comparison of two scmp-report/1 documents.

   Absolute thresholds on timing metrics rot: the host's speed drifts
   by tens of percent between runs, so a gate like "dcdm < 250000 ns"
   is simultaneously too loose (it hides a 2x regression on a fast
   host) and too brittle (it fails an unchanged tree on a slow one).
   The A/B form compares a fresh report against a committed baseline
   with a per-metric tolerance band instead: a metric regresses only
   when its paired ratio leaves the band in the direction the rule
   calls worse. Deterministic counters get a zero-width band, wall
   measurements get an informational rule, and everything else falls
   through to a catch-all. *)

type direction = Higher_worse | Lower_worse | Both | Info

type rule = { pattern : string; direction : direction; tol : float }

type status = Within | Regressed | Improved | Informational | Added | Missing

type delta = {
  metric : string;
  old_value : float option;
  new_value : float option;
  rel : float option;
  status : status;
}

type outcome = {
  deltas : delta list;
  compared : int;
  within : int;
  regressed : int;
  improved : int;
  informational : int;
  missing : int;
  added : int;
}

let passed o = o.regressed = 0 && o.missing = 0

let catch_all = { pattern = "*"; direction = Both; tol = 0.10 }

let default_rules = [ catch_all ]

(* The bench profile encodes the judgement the old shell gates made by
   hand: the interleaved-batch speedup ratios are the only drift-immune
   timing metrics (keep them tight), raw ns_per_run figures are compared
   loosely enough to survive host drift while still catching
   order-of-magnitude regressions, deterministic minor-word counts get
   a 2% band in the worse direction, per-second throughputs and wall
   seconds are informational, and simulated event/delivery counts are
   deterministic so any change at all is a regression. *)
let bench_rules =
  [
    { pattern = "micro/dijkstra-100-speedup/x"; direction = Lower_worse; tol = 0.15 };
    { pattern = "micro/engine-churn-speedup/x"; direction = Lower_worse; tol = 0.15 };
    { pattern = "micro/placement-1000-speedup/x"; direction = Lower_worse; tol = 0.15 };
    { pattern = "micro/apsp-delay-1000-speedup/x"; direction = Lower_worse; tol = 0.15 };
    { pattern = "micro/*/ns_per_run"; direction = Higher_worse; tol = 1.5 };
    (* Minor words of a fixed, warmed workload do not depend on the
       host: a tight band catches an allocation creeping back onto a
       hot path, while allocating less is an improvement. *)
    { pattern = "micro/*/minor_words"; direction = Higher_worse; tol = 0.02 };
    { pattern = "e2e/*/wall_s"; direction = Info; tol = 0.0 };
    (* The event-kernel's steady-state throughput is measured best-of-k
       over a warmed scenario, so unlike single-shot wall figures it is
       stable enough to band: losing almost half of it means the kernel
       regressed, not that the host drifted. More specific than — and
       therefore ahead of — the informational per-second catch-all. *)
    { pattern = "e2e/scmp/events_per_s"; direction = Lower_worse; tol = 0.40 };
    { pattern = "e2e/*_per_s"; direction = Info; tol = 0.0 };
    { pattern = "e2e/*/deliveries"; direction = Both; tol = 0.0 };
    { pattern = "e2e/*/events"; direction = Both; tol = 0.0 };
    catch_all;
  ]

let profile_of_string = function
  | "default" -> Ok default_rules
  | "bench" -> Ok bench_rules
  | s -> Error (Printf.sprintf "unknown ab profile %S (known: default, bench)" s)

(* Full-string glob where '*' matches any (possibly empty) run. *)
let glob_match pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pattern.[pi] with
      | '*' ->
        let rec try_at k = k <= ns && (go (pi + 1) k || try_at (k + 1)) in
        try_at si
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

let rule_for rules metric =
  match List.find_opt (fun r -> glob_match r.pattern metric) rules with
  | Some r -> r
  | None -> catch_all

(* ---- report access ---- *)

let metrics j =
  match Obs.Json.mem "schema" j with
  | Some (Obs.Json.String s) when s = Obs.Report.schema -> (
    match Obs.Json.mem "metrics" j with
    | Some (Obs.Json.Obj fields) ->
      Ok
        (List.filter_map
           (fun (k, v) ->
             match v with
             | Obs.Json.Int i -> Some (k, float_of_int i)
             | Obs.Json.Float f -> Some (k, f)
             | Obs.Json.Null | Obs.Json.Bool _ | Obs.Json.String _
             | Obs.Json.List _ | Obs.Json.Obj _ ->
               None)
           fields)
    | Some _ | None -> Error "report has no metrics object")
  | Some (Obs.Json.String s) ->
    Error (Printf.sprintf "not a %s document (schema %S)" Obs.Report.schema s)
  | Some _ | None -> Error "missing schema field"

let metric_value j key =
  match metrics j with
  | Error e -> Error e
  | Ok metrics -> (
    match List.assoc_opt key metrics with
    | Some v -> Ok v
    | None ->
      Error
        (Printf.sprintf "metric %S not present in report (%d metrics)" key
           (List.length metrics)))

(* ---- comparison ---- *)

let classify rule ~ov ~nv =
  let rel = (nv -. ov) /. Float.max (Float.abs ov) 1e-9 in
  let status =
    match rule.direction with
    | Info -> Informational
    | Higher_worse ->
      if rel > rule.tol then Regressed
      else if rel < -.rule.tol then Improved
      else Within
    | Lower_worse ->
      if rel < -.rule.tol then Regressed
      else if rel > rule.tol then Improved
      else Within
    | Both -> if Float.abs rel > rule.tol then Regressed else Within
  in
  (rel, status)

let compare_metrics ?(rules = default_rules) ~old_metrics ~new_metrics () =
  let names =
    List.map fst old_metrics @ List.map fst new_metrics
    |> List.sort_uniq String.compare
  in
  let deltas =
    List.map
      (fun metric ->
        let ov = List.assoc_opt metric old_metrics in
        let nv = List.assoc_opt metric new_metrics in
        match (ov, nv) with
        | Some ov, Some nv ->
          let rel, status = classify (rule_for rules metric) ~ov ~nv in
          {
            metric;
            old_value = Some ov;
            new_value = Some nv;
            rel = Some rel;
            status;
          }
        | Some ov, None ->
          (* A metric that vanished is a loud failure: a silently
             renamed key must never let a gate pass by matching
             nothing. *)
          { metric; old_value = Some ov; new_value = None; rel = None;
            status = Missing }
        | None, Some nv ->
          { metric; old_value = None; new_value = Some nv; rel = None;
            status = Added }
        | None, None -> assert false)
      names
  in
  let count st = List.length (List.filter (fun d -> d.status = st) deltas) in
  {
    deltas;
    compared =
      List.length
        (List.filter (fun d -> d.old_value <> None && d.new_value <> None)
           deltas);
    within = count Within;
    regressed = count Regressed;
    improved = count Improved;
    informational = count Informational;
    missing = count Missing;
    added = count Added;
  }

let compare_reports ?rules ~old_json ~new_json () =
  match (metrics old_json, metrics new_json) with
  | Error e, _ -> Error (Printf.sprintf "old report: %s" e)
  | _, Error e -> Error (Printf.sprintf "new report: %s" e)
  | Ok old_metrics, Ok new_metrics ->
    Ok (compare_metrics ?rules ~old_metrics ~new_metrics ())

(* ---- scmp-ab/1 serialization ---- *)

let schema = "scmp-ab/1"

let status_label = function
  | Within -> "within"
  | Regressed -> "regressed"
  | Improved -> "improved"
  | Informational -> "info"
  | Added -> "added"
  | Missing -> "missing"

let to_json ~old_name ~new_name o =
  let fnum = function
    | Some v -> Obs.Json.Float v
    | None -> Obs.Json.Null
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema);
      ("old", Obs.Json.String old_name);
      ("new", Obs.Json.String new_name);
      ( "summary",
        Obs.Json.Obj
          [
            ("compared", Obs.Json.Int o.compared);
            ("within", Obs.Json.Int o.within);
            ("regressed", Obs.Json.Int o.regressed);
            ("improved", Obs.Json.Int o.improved);
            ("info", Obs.Json.Int o.informational);
            ("missing", Obs.Json.Int o.missing);
            ("added", Obs.Json.Int o.added);
          ] );
      ("verdict", Obs.Json.String (if passed o then "pass" else "fail"));
      ( "deltas",
        Obs.Json.List
          (List.map
             (fun d ->
               Obs.Json.Obj
                 [
                   ("metric", Obs.Json.String d.metric);
                   ("old", fnum d.old_value);
                   ("new", fnum d.new_value);
                   ("rel", fnum d.rel);
                   ("status", Obs.Json.String (status_label d.status));
                 ])
             o.deltas) );
    ]
