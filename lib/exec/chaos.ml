(* Seeded chaos campaigns: randomized fault programs over the protocol
   runner, executed by Batch with the invariant verifier on.

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
   can share one spec), and Batch resolves drivers before dispatch and
   merges per-trial reports in trial-index order, so the campaign
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
  loss : Eventsim.Netsim.loss option;
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
      (* Background packet loss for the whole run; last draw wins. The
         seed is drawn before the rate: the order of the two draws is
         part of every plan. *)
      let seed = big () in
      let rate = 0.01 +. Prng.float rng 0.04 in
      loss := Some { Eventsim.Netsim.rate; seed; only = None }
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
    {
      (Protocols.Runner.make ~data_count:packets ~spec:tspec ~center:t.center
         ~source:t.source ~members:t.members ())
      with
      loss = t.loss;
      faults;
    }
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

let run ?jobs spec =
  if spec.trials < 1 then Error "Chaos.run: trials must be >= 1"
  else if spec.packets < 1 then Error "Chaos.run: packets must be >= 1"
  else
    match plan spec with
    | exception Invalid_argument msg -> Error msg
    | [] -> Error "Chaos.run: empty campaign"
    | trials ->
      let ( let* ) = Result.bind in
      let* b =
        Batch.run ?jobs ~kind:"chaos" ~item:"trial" ~name:trial_name
          ~driver:(fun t -> t.driver)
          ~drivers:spec.drivers
          ~topologies:(List.map Sweep.topo_to_string spec.topos)
          ~meta:
            [
              ("trials", Obs.Json.Int spec.trials);
              ("packets", Obs.Json.Int spec.packets);
              ("group_size", Obs.Json.Int spec.group_size);
              ("seed", Obs.Json.Int spec.seed);
            ]
          ~report:(fun (r : trial_result) -> r.report)
          (fun t driver -> Ok (run_trial ~packets:spec.packets driver t))
          trials
      in
      let results = b.results in
      (* Shrink every tripped trial sequentially, in trial order —
         deterministic and off the pool. *)
      let violations =
        List.filter_map
          (fun (r : trial_result) ->
            match r.status with
            | Passed _ -> None
            | Tripped msg ->
              let driver = List.assoc r.trial.driver b.drivers in
              let minimal, minimal_message =
                shrink ~packets:spec.packets driver r.trial msg
              in
              Some
                { v_trial = r.trial; message = msg; minimal; minimal_message })
          results
      in
      let passed =
        List.filter_map
          (fun (r : trial_result) ->
            match r.status with Passed res -> Some res | Tripped _ -> None)
          results
      in
      let blackouts =
        List.concat_map (fun (r : Protocols.Runner.result) -> r.blackouts) passed
      in
      let ratios =
        List.map (fun (r : Protocols.Runner.result) -> r.delivery_ratio) passed
      in
      let m = Obs.Report.metrics b.report in
      let count name v = Obs.Metrics.set_counter (Obs.Metrics.counter m name) v in
      let gauge name v = Obs.Metrics.set (Obs.Metrics.gauge m name) v in
      count "chaos/violations" (List.length violations);
      count "chaos/fault_events"
        (List.fold_left
           (fun acc (r : trial_result) ->
             List.fold_left
               (fun a u -> a + List.length u.events)
               acc r.trial.program)
           0 results);
      if blackouts <> [] then
        List.iter
          (fun (q, name) ->
            gauge
              (Printf.sprintf "chaos/blackout_%s_s" name)
              (Scmp_util.Stats.percentile_l (float_of_int q) blackouts))
          quantiles;
      if ratios <> [] then begin
        gauge "chaos/delivery_ratio_min" (List.fold_left min 1.0 ratios);
        gauge "chaos/delivery_ratio_p50"
          (Scmp_util.Stats.percentile_l 50.0 ratios)
      end;
      Ok
        {
          report = b.report;
          results;
          violations;
          blackouts;
          wall_s = b.wall_s;
          jobs_used = b.jobs_used;
        }
