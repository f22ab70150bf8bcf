(* The one batch executor: sweeps and chaos campaigns differ in what an
   item is and what they add to the report, not in how a batch runs. *)

type 'r t = {
  results : 'r list;
  report : Obs.Report.t;
  drivers : (string * Protocols.Driver.t) list;
  wall_s : float;
  jobs_used : int;
}

let strings xs = Obs.Json.List (List.map (fun x -> Obs.Json.String x) xs)

(* Meta first (merge keeps the first value of a key), then the item
   reports in item order — results arrive ordered from Pool.map, so the
   fold is scheduling-independent — then the batch's own metrics. *)
let merged_report ~kind ~item ~drivers ~topologies ~meta reports ~jobs_used
    ~wall_s =
  let report = Obs.Report.create ~name:kind () in
  Obs.Report.set_meta report "kind" (Obs.Json.String kind);
  Obs.Report.set_meta report "drivers" (strings drivers);
  Obs.Report.set_meta report "topologies" (strings topologies);
  List.iter (fun (k, v) -> Obs.Report.set_meta report k v) meta;
  List.iter (Obs.Report.merge report) reports;
  let m = Obs.Report.metrics report in
  Obs.Metrics.set_counter
    (Obs.Metrics.counter m (Printf.sprintf "%s/%ss" kind item))
    (List.length reports);
  (* Wall-clock facts about this particular execution: flagged so the
     deterministic serialization excludes them. *)
  Obs.Metrics.set
    (Obs.Metrics.gauge ~wallclock:true m (kind ^ "/jobs"))
    (float_of_int jobs_used);
  Obs.Metrics.set (Obs.Metrics.gauge ~wallclock:true m (kind ^ "/wall_s")) wall_s;
  report

let run ?jobs ~kind ~item ~name ~driver ~drivers ~topologies ~meta ~report f
    items =
  let jobs_used = match jobs with Some j -> j | None -> Pool.default_jobs () in
  if jobs_used < 1 then
    Error
      (Printf.sprintf "%s.run: jobs must be >= 1" (String.capitalize_ascii kind))
  else
    match Protocols.Driver.find_all drivers with
    | Error _ as e -> e
    | Ok pairs -> (
      let tasks = List.map (fun x -> (x, List.assoc (driver x) pairs)) items in
      let run_all () =
        Pool.with_pool ~jobs:jobs_used (fun pool ->
            Pool.map pool tasks ~f:(fun _ (x, d) -> f x d))
      in
      let failed i msg =
        Error (Printf.sprintf "%s %s: %s" item (name (List.nth items i)) msg)
      in
      match Obs.Clock.time run_all with
      | exception Pool.Task_error (i, e) -> failed i (Printexc.to_string e)
      | outcomes, wall_s -> (
        match
          List.find_mapi
            (fun i r -> match r with Error msg -> Some (i, msg) | Ok _ -> None)
            outcomes
        with
        | Some (i, msg) -> failed i msg
        | None ->
          let results = List.map Result.get_ok outcomes in
          let report =
            merged_report ~kind ~item ~drivers ~topologies ~meta
              (List.map report results) ~jobs_used ~wall_s
          in
          Ok { results; report; drivers = pairs; wall_s; jobs_used }))
