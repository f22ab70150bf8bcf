(* Seeded chaos campaigns: randomized fault programs over the protocol
   runner, executed on a Pool with the invariant verifier on.

   Everything a trial does is decided at planning time, before any
   worker runs: the topology seed, the member sample and the fault
   program are drawn from a per-trial PRNG stream split off the master
   seed in trial-index order. A trial descriptor is therefore plain
   replayable data — which is what makes shrinking possible: the
   minimal-schedule search just re-runs the descriptor with subsets of
   its fault program.

   Isolation follows the Sweep contract: workers get the topology
   from the descriptor's seed inside their task (through
   [Sweep.generate_topo]'s per-domain memo, so a shrink's replays
   can share one spec), drivers are resolved before dispatch, and
   per-trial reports merge in trial-index order, so the campaign
   report serialized with [~wallclock:false] is byte-identical for
   every jobs count. *)

module Prng = Scmp_util.Prng
module Faults = Eventsim.Faults

type spec = {
  drivers : string list;
  topos : Sweep.topo list;
  trials : int;
  packets : int;
  group_size : int;
  seed : int;
}

let make ?(packets = 12) ?(group_size = 8) ?(seed = 1) ~drivers ~topos ~trials
    () =
  { drivers; topos; trials; packets; group_size; seed }

type fault_unit = { label : string; events : Faults.spec list }

type trial = {
  index : int;
  driver : string;
  topo : Sweep.topo;
  tseed : int;
  center : int;
  source : int;
  members : int list;
  program : fault_unit list;
  loss : (float * int) option;
}

let trial_name t =
  Printf.sprintf "chaos/%s/%s/t%d" t.driver
    (Sweep.topo_to_string t.topo)
    t.index

let program_to_string program =
  String.concat "; "
    (List.map
       (fun u ->
         Printf.sprintf "%s [%s]" u.label
           (String.concat ", "
              (List.map
                 (fun (s : Faults.spec) ->
                   Printf.sprintf "%s@%.2f" (Faults.event_to_string s.event)
                     s.at)
                 u.events)))
       program)

(* Draw one trial's fault program. Kinds: link flap, node crash (with
   revive), partition (with heal), m-router kill (with revive), loss.
   Every destructive draw is paired with its recovery so the quiescent
   network is whole again and the post-run invariants apply to every
   node. *)
let draw_program rng g ~center ~source ~t0 ~t1 =
  let n = Netgraph.Graph.node_count g in
  let span = t1 -. t0 in
  let at () = t0 +. Prng.float rng span in
  let dur () = 0.5 +. Prng.float rng 2.5 in
  let big () = Prng.int rng 1_000_000_000 in
  let loss = ref None in
  let unit_count = 1 + Prng.int rng 3 in
  let units = ref [] in
  for _ = 1 to unit_count do
    match Prng.int rng 5 with
    | 0 ->
      let events =
        Faults.random_link_failures ~seed:(big ()) ~count:1 ~t0 ~t1
          ~restore_after:(dur ()) g
      in
      units := { label = "link-flap"; events } :: !units
    | 1 ->
      (* Crash any router but the m-router (that is its own kind) and
         the source (so the data stream itself stays alive). *)
      let victims =
        Array.of_seq
          (Seq.filter
             (fun x -> x <> center && x <> source)
             (Seq.init n Fun.id))
      in
      if Array.length victims > 0 then begin
        let x = Prng.pick rng victims in
        let t = at () in
        units :=
          {
            label = Printf.sprintf "crash-%d" x;
            events =
              [
                { Faults.at = t; event = Faults.Node_down x };
                { Faults.at = t +. dur (); event = Faults.Node_up x };
              ];
          }
          :: !units
      end
    | 2 ->
      let events =
        Faults.random_partitions ~seed:(big ()) ~count:1 ~t0 ~t1
          ~heal_after:(dur ()) g
      in
      units := { label = "partition"; events } :: !units
    | 3 ->
      let t = at () in
      units :=
        {
          label = "mrouter-kill";
          events =
            [
              { Faults.at = t; event = Faults.Node_down center };
              { Faults.at = t +. dur (); event = Faults.Node_up center };
            ];
        }
        :: !units
    | _ ->
      (* Background packet loss for the whole run; last draw wins. *)
      loss := Some (0.01 +. Prng.float rng 0.04, big ())
  done;
  (List.rev !units, !loss)

(* The campaign plan: drivers x topos x trial indices, row-major, one
   split stream per trial. A pure function of the spec. *)
let plan spec =
  let master = Prng.create spec.seed in
  let acc = ref [] in
  let index = ref 0 in
  List.iter
    (fun driver ->
      List.iter
        (fun topo ->
          for _ = 1 to spec.trials do
            let rng = Prng.split master in
            let tseed = 1 + Prng.int rng 1_000_000 in
            let tspec = Sweep.generate_topo topo tseed in
            let sc =
              match
                Scmp.Setup.draw ~rng ~group_size:spec.group_size
                  ~packets:spec.packets tspec
              with
              | Ok s -> s.scenario
              | Error msg ->
                invalid_arg (Printf.sprintf "Chaos: trial %d: %s" !index msg)
            in
            (* Fault times land inside the data phase. *)
            let program, loss =
              draw_program rng tspec.Topology.Spec.graph ~center:sc.center
                ~source:sc.source ~t0:sc.data_start
                ~t1:(Protocols.Runner.data_end sc)
            in
            acc :=
              {
                index = !index;
                driver;
                topo;
                tseed;
                center = sc.center;
                source = sc.source;
                members = sc.members;
                program;
                loss;
              }
              :: !acc;
            incr index
          done)
        spec.topos)
    spec.drivers;
  List.rev !acc

type status = Passed of Protocols.Runner.result | Tripped of string

type trial_result = {
  trial : trial;
  status : status;
  report : Obs.Report.t;
  wall_s : float;
}

(* Replay one descriptor (possibly with a shrunk program): the
   descriptor's topology, a rebuilt scenario, one run with the
   invariant verifier on. An invariant trip is an outcome, not an
   error — the campaign exists to find them. *)
let run_trial ~packets driver (t : trial) =
  let tspec = Sweep.generate_topo t.topo t.tseed in
  let faults = List.concat_map (fun u -> u.events) t.program in
  let sc =
    Protocols.Runner.make ~data_count:packets ~spec:tspec ~center:t.center
      ~source:t.source ~members:t.members ~faults ?loss:t.loss ()
  in
  let report = Obs.Report.create ~name:(trial_name t) () in
  let status, wall_s =
    Obs.Clock.time (fun () ->
        try Passed (Protocols.Runner.run ~check:true ~report driver sc)
        with Check.Invariant.Violation msg -> Tripped msg)
  in
  { trial = t; status; report; wall_s }

(* Greedy delta-debug: try dropping each fault unit in turn; keep the
   drop whenever the remaining program still trips an invariant. The
   result is 1-minimal — removing any single remaining unit makes the
   violation disappear. *)
let shrink ~packets driver (t : trial) msg =
  let trips program =
    match (run_trial ~packets driver { t with program }).status with
    | Tripped m -> Some m
    | Passed _ -> None
  in
  let rec drop_each kept last = function
    | [] -> (List.rev kept, last)
    | u :: rest -> (
      match trips (List.rev_append kept rest) with
      | Some m -> drop_each kept m rest
      | None -> drop_each (u :: kept) last rest)
  in
  drop_each [] msg t.program

type violation = {
  v_trial : trial;
  message : string;
  minimal : fault_unit list;
  minimal_message : string;
}

type outcome = {
  report : Obs.Report.t;
  results : trial_result list;
  violations : violation list;
  blackouts : float list;
  wall_s : float;
  jobs_used : int;
}

let quantiles = [ (50, "p50"); (95, "p95"); (100, "max") ]

let merged_report spec (results : trial_result list) ~violations ~blackouts
    ~ratios ~jobs_used ~wall_s =
  let report = Obs.Report.create ~name:"chaos" () in
  Obs.Report.set_meta report "kind" (Obs.Json.String "chaos");
  Obs.Report.set_meta report "drivers"
    (Obs.Json.List (List.map (fun d -> Obs.Json.String d) spec.drivers));
  Obs.Report.set_meta report "topologies"
    (Obs.Json.List
       (List.map
          (fun t -> Obs.Json.String (Sweep.topo_to_string t))
          spec.topos));
  Obs.Report.set_meta report "trials" (Obs.Json.Int spec.trials);
  Obs.Report.set_meta report "packets" (Obs.Json.Int spec.packets);
  Obs.Report.set_meta report "group_size" (Obs.Json.Int spec.group_size);
  Obs.Report.set_meta report "seed" (Obs.Json.Int spec.seed);
  List.iter
    (fun (r : trial_result) -> Obs.Report.merge report r.report)
    results;
  let m = Obs.Report.metrics report in
  Obs.Metrics.set_counter
    (Obs.Metrics.counter m "chaos/trials")
    (List.length results);
  Obs.Metrics.set_counter
    (Obs.Metrics.counter m "chaos/violations")
    (List.length violations);
  let fault_events =
    List.fold_left
      (fun acc (r : trial_result) ->
        acc
        + List.fold_left
            (fun a u -> a + List.length u.events)
            0 r.trial.program)
      0 results
  in
  Obs.Metrics.set_counter (Obs.Metrics.counter m "chaos/fault_events")
    fault_events;
  if blackouts <> [] then
    List.iter
      (fun (q, name) ->
        Obs.Metrics.set
          (Obs.Metrics.gauge m (Printf.sprintf "chaos/blackout_%s_s" name))
          (Scmp_util.Stats.percentile_l (float_of_int q) blackouts))
      quantiles;
  if ratios <> [] then begin
    Obs.Metrics.set
      (Obs.Metrics.gauge m "chaos/delivery_ratio_min")
      (List.fold_left min 1.0 ratios);
    Obs.Metrics.set
      (Obs.Metrics.gauge m "chaos/delivery_ratio_p50")
      (Scmp_util.Stats.percentile_l 50.0 ratios)
  end;
  Obs.Metrics.set (Obs.Metrics.gauge ~wallclock:true m "chaos/jobs")
    (float_of_int jobs_used);
  Obs.Metrics.set (Obs.Metrics.gauge ~wallclock:true m "chaos/wall_s") wall_s;
  report

let run ?jobs spec =
  let jobs_used = match jobs with Some j -> j | None -> Pool.default_jobs () in
  if jobs_used < 1 then Error "Chaos.run: jobs must be >= 1"
  else if spec.trials < 1 then Error "Chaos.run: trials must be >= 1"
  else if spec.packets < 1 then Error "Chaos.run: packets must be >= 1"
  else begin
    match Protocols.Driver.find_all spec.drivers with
    | Error msg -> Error msg
    | Ok driver_pairs -> (
      match plan spec with
      | exception Invalid_argument msg -> Error msg
      | [] -> Error "Chaos.run: empty campaign"
      | trials -> (
        let tasks =
          List.map (fun t -> (t, List.assoc t.driver driver_pairs)) trials
        in
        let run_all () =
          Pool.with_pool ~jobs:jobs_used (fun pool ->
              Pool.map pool tasks ~f:(fun _ (t, driver) ->
                  run_trial ~packets:spec.packets driver t))
        in
        try
          let results, wall_s = Obs.Clock.time run_all in
          (* Shrink every tripped trial sequentially, in trial order —
             deterministic and off the pool. *)
          let violations =
            List.filter_map
              (fun (r : trial_result) ->
                match r.status with
                | Passed _ -> None
                | Tripped msg ->
                  let driver = List.assoc r.trial.driver driver_pairs in
                  let minimal, minimal_message =
                    shrink ~packets:spec.packets driver r.trial msg
                  in
                  Some
                    { v_trial = r.trial; message = msg; minimal;
                      minimal_message })
              results
          in
          let blackouts =
            List.concat_map
              (fun (r : trial_result) ->
                match r.status with
                | Passed res -> res.Protocols.Runner.blackouts
                | Tripped _ -> [])
              results
          in
          let ratios =
            List.filter_map
              (fun (r : trial_result) ->
                match r.status with
                | Passed res -> Some res.Protocols.Runner.delivery_ratio
                | Tripped _ -> None)
              results
          in
          let report =
            merged_report spec results ~violations ~blackouts ~ratios
              ~jobs_used ~wall_s
          in
          Ok { report; results; violations; blackouts; wall_s; jobs_used }
        with Pool.Task_error (i, e) ->
          Error
            (Printf.sprintf "trial %s: %s"
               (trial_name (List.nth trials i))
               (Printexc.to_string e))))
  end
