(* Declarative scenario sweeps over the protocol runner, executed on a
   Pool with a deterministic merge.

   Isolation contract: every cell builds its own scenario and report
   inside its task — nothing mutable crosses the pool boundary. Cells
   that share a (topo, seed) pair on one worker may share the topology
   and what derives from it (see [generate_topo]): pure functions of the
   pair, memoized per domain, so a cell's result does not depend on
   which cells its worker ran before it. Drivers are resolved to
   first-class modules before dispatch (the registry's tables are
   touched only by the submitting domain), and each cell's member
   sampling uses a PRNG stream derived by [Prng.split] from the master
   seed in cell-index order, so the stream a cell sees depends on its
   grid position and never on which worker ran it or when. The merged
   report folds cell reports in cell-index order; with
   [~wallclock:false] serialization it is byte-identical across any
   jobs count. *)

type topo =
  | Waxman of int
  | Random3 of int
  | Random5 of int
  | Arpanet

let topo_to_string = function
  | Waxman n -> Printf.sprintf "waxman:%d" n
  | Random3 n -> Printf.sprintf "random3:%d" n
  | Random5 n -> Printf.sprintf "random5:%d" n
  | Arpanet -> "arpanet"

let topo_of_string s =
  let split_sized name =
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = name -> (
      let tail = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt tail with
      | Some n when n > 1 -> Some n
      | _ -> None)
    | _ -> None
  in
  match s with
  | "arpanet" -> Ok Arpanet
  | _ -> (
    match
      ( split_sized "waxman",
        split_sized "random3",
        split_sized "random5" )
    with
    | Some n, _, _ -> Ok (Waxman n)
    | _, Some n, _ -> Ok (Random3 n)
    | _, _, Some n -> Ok (Random5 n)
    | None, None, None ->
      Error
        (Printf.sprintf
           "bad topology %S (expected waxman:N, random3:N, random5:N or \
            arpanet)"
           s))

let generate topo seed =
  match topo with
  | Waxman n -> Topology.Waxman.generate ~seed ~n ()
  | Random3 n -> Topology.Flat_random.generate ~seed ~n ~avg_degree:3.0
  | Random5 n -> Topology.Flat_random.generate ~seed ~n ~avg_degree:5.0
  | Arpanet -> Topology.Arpanet.generate ~seed

(* A spec is a pure function of (topo, seed), so cells, runs and
   replays that share the pair share one spec — and through it one
   simulated graph, one APSP table per graph and one rule-1 centre.
   The memo is the per-topology policy ({!Scmp_util.Weak_memo}). It
   holds the two most recent specs itself: the grid's innermost loop
   runs over the seeds, so consecutive cells alternate between specs
   and drop each in between, and a spec held only weakly would be
   rebuilt whenever a collection fell between two of them. *)
let memo = Scmp_util.Weak_memo.create ~hold:2 ()

let same_topo (t, s) (t', s') = Int.equal s s' && t = t'

let generate_topo topo seed =
  Scmp_util.Weak_memo.find memo ~same:same_topo (topo, seed) (fun () ->
      generate topo seed)

type random_failures = {
  rf_seed : int;
  rf_count : int;
  rf_restore_after : float option;
}

type churn_spec = {
  cs_interarrival : float;
  cs_holding : float;
  cs_seed : int option;
}

type spec = {
  drivers : string list;
  topos : topo list;
  group_sizes : int list;
  seeds : int list;
  packets : int;
  master_seed : int;
  loss : (float * int) option;
  loss_class : Eventsim.Netsim.pkt_class option;
  faults : Eventsim.Faults.spec list;
  random_link_failures : random_failures option;
  churn : churn_spec option;
}

let make ?(packets = 30) ?(master_seed = 1) ?loss ?loss_class ?(faults = [])
    ?random_link_failures ?churn ~drivers ~topos ~group_sizes ~seeds () =
  {
    drivers;
    topos;
    group_sizes;
    seeds;
    packets;
    master_seed;
    loss;
    loss_class;
    faults;
    random_link_failures;
    churn;
  }

type cell = {
  index : int;
  driver : string;
  topo : topo;
  group_size : int;
  seed : int;
}

let cell_name c =
  Printf.sprintf "%s/%s/k%d/s%d" c.driver (topo_to_string c.topo) c.group_size
    c.seed

let cells spec =
  (* Row-major over drivers x topos x group sizes x seeds: the cell
     order — and with it the merge order and each cell's PRNG stream —
     is a pure function of the spec. *)
  let acc = ref [] in
  let index = ref 0 in
  List.iter
    (fun driver ->
      List.iter
        (fun topo ->
          List.iter
            (fun group_size ->
              List.iter
                (fun seed ->
                  acc := { index = !index; driver; topo; group_size; seed }
                          :: !acc;
                  incr index)
                spec.seeds)
            spec.group_sizes)
        spec.topos)
    spec.drivers;
  List.rev !acc

type cell_result = {
  cell : cell;
  result : Protocols.Runner.result;
  report : Obs.Report.t;
  wall_s : float;
}

type outcome = {
  report : Obs.Report.t;
  cell_results : cell_result list;
  wall_s : float;
  seq_estimate_s : float;
  jobs_used : int;
}

(* Per-cell rows in the merged report: every cell publishes its headline
   results under its own unique [cell/<name>/...] keys, so a merged
   sweep report can be diffed cell-by-cell (the A/B gate's input). *)
let publish_cell_metrics report name (result : Protocols.Runner.result) =
  let m = Obs.Report.metrics report in
  let pfx = "cell/" ^ name in
  Obs.Metrics.set_counter
    (Obs.Metrics.counter m (pfx ^ "/deliveries"))
    result.Protocols.Runner.deliveries;
  Obs.Metrics.set_counter
    (Obs.Metrics.counter m (pfx ^ "/dropped"))
    result.Protocols.Runner.dropped;
  Obs.Metrics.set
    (Obs.Metrics.gauge m (pfx ^ "/data_overhead"))
    result.Protocols.Runner.data_overhead;
  Obs.Metrics.set
    (Obs.Metrics.gauge m (pfx ^ "/protocol_overhead"))
    result.Protocols.Runner.protocol_overhead;
  Obs.Metrics.set
    (Obs.Metrics.gauge m (pfx ^ "/max_delay"))
    result.Protocols.Runner.max_delay;
  Obs.Metrics.set
    (Obs.Metrics.gauge m (pfx ^ "/delivery_ratio"))
    result.Protocols.Runner.delivery_ratio

let perturb ?loss ?loss_class ?(faults = []) ?random_link_failures ?churn
    ~seed (sc : Protocols.Runner.scenario) =
  (* The data window anchors the randomized perturbations, so their
     instants track the membership schedule. *)
  let t0 = sc.data_start and t1 = Protocols.Runner.data_end sc in
  let random_faults =
    match random_link_failures with
    | None -> []
    | Some rf ->
      Eventsim.Faults.random_link_failures ~seed:rf.rf_seed ~count:rf.rf_count
        ~t0 ~t1 ?restore_after:rf.rf_restore_after sc.spec.Topology.Spec.graph
  in
  let churn =
    Option.map
      (fun cs ->
        {
          Protocols.Runner.mean_interarrival = cs.cs_interarrival;
          mean_holding = cs.cs_holding;
          horizon = t1;
          churn_seed = Option.value cs.cs_seed ~default:(seed + 31);
        })
      churn
  in
  { sc with loss; loss_class; faults = faults @ random_faults; churn }

(* One isolated task: the cell's topology (possibly shared with
   earlier cells of its (topo, seed) on this worker), members sampled from the
   cell's private stream, one run published into a fresh report. *)
let run_cell ?(check = false) sweep driver cell rng =
  let spec = generate_topo cell.topo cell.seed in
  let base =
    match
      Scmp.Setup.draw ~rng ~group_size:cell.group_size ~packets:sweep.packets
        spec
    with
    | Ok s -> s.scenario
    | Error msg ->
      invalid_arg (Printf.sprintf "Sweep: cell %s: %s" (cell_name cell) msg)
  in
  (* Random failures are seeded off the topology seed, not the cell
     index: every driver sharing a (topo, seed) cell faces the identical
     fault draw — the head-to-head comparison the manifests exist for. *)
  let random_link_failures =
    Option.map
      (fun rf -> { rf with rf_seed = rf.rf_seed + cell.seed })
      sweep.random_link_failures
  in
  let sc =
    perturb ?loss:sweep.loss ?loss_class:sweep.loss_class ~faults:sweep.faults
      ?random_link_failures ?churn:sweep.churn ~seed:cell.seed base
  in
  let report = Obs.Report.create ~name:(cell_name cell) () in
  let result, wall_s =
    Obs.Clock.time (fun () -> Protocols.Runner.run ~check ~report driver sc)
  in
  publish_cell_metrics report (cell_name cell) result;
  { cell; result; report; wall_s }

let merged_report spec (results : cell_result list) ~jobs_used ~wall_s
    ~seq_estimate_s =
  let report = Obs.Report.create ~name:"sweep" () in
  Obs.Report.set_meta report "kind" (Obs.Json.String "sweep");
  Obs.Report.set_meta report "drivers"
    (Obs.Json.List (List.map (fun d -> Obs.Json.String d) spec.drivers));
  Obs.Report.set_meta report "topologies"
    (Obs.Json.List
       (List.map (fun t -> Obs.Json.String (topo_to_string t)) spec.topos));
  Obs.Report.set_meta report "group_sizes"
    (Obs.Json.List (List.map (fun k -> Obs.Json.Int k) spec.group_sizes));
  Obs.Report.set_meta report "seeds"
    (Obs.Json.List (List.map (fun s -> Obs.Json.Int s) spec.seeds));
  Obs.Report.set_meta report "packets" (Obs.Json.Int spec.packets);
  Obs.Report.set_meta report "master_seed" (Obs.Json.Int spec.master_seed);
  (* Perturbation facts appear only when configured, so unperturbed
     sweep reports keep their historical byte-exact shape. *)
  (match spec.loss with
  | Some (rate, seed) ->
    Obs.Report.set_meta report "loss_rate" (Obs.Json.Float rate);
    Obs.Report.set_meta report "loss_seed" (Obs.Json.Int seed)
  | None -> ());
  if spec.faults <> [] then
    Obs.Report.set_meta report "scripted_faults"
      (Obs.Json.Int (List.length spec.faults));
  (match spec.random_link_failures with
  | Some rf ->
    Obs.Report.set_meta report "random_link_failures" (Obs.Json.Int rf.rf_count)
  | None -> ());
  (match spec.churn with
  | Some _ -> Obs.Report.set_meta report "churn" (Obs.Json.Bool true)
  | None -> ());
  (* Merge in cell-index order — results arrive already ordered from
     Pool.map, so the fold is scheduling-independent. *)
  List.iter (fun (r : cell_result) -> Obs.Report.merge report r.report) results;
  let m = Obs.Report.metrics report in
  Obs.Metrics.set_counter
    (Obs.Metrics.counter m "sweep/cells")
    (List.length results);
  (* Wall-clock facts about this particular execution: flagged so the
     deterministic serialization excludes them. *)
  Obs.Metrics.set (Obs.Metrics.gauge ~wallclock:true m "sweep/jobs")
    (float_of_int jobs_used);
  Obs.Metrics.set (Obs.Metrics.gauge ~wallclock:true m "sweep/wall_s") wall_s;
  Obs.Metrics.set
    (Obs.Metrics.gauge ~wallclock:true m "sweep/cells_per_s")
    (if wall_s > 0.0 then float_of_int (List.length results) /. wall_s else 0.0);
  Obs.Metrics.set
    (Obs.Metrics.gauge ~wallclock:true m "sweep/speedup")
    (if wall_s > 0.0 then seq_estimate_s /. wall_s else 0.0);
  let cell_wall =
    Obs.Metrics.histogram ~wallclock:true m "sweep/cell_wall_s"
  in
  List.iter
    (fun (r : cell_result) -> Obs.Metrics.observe cell_wall r.wall_s)
    results;
  report

let run ?(check = false) ?jobs spec =
  let jobs_used = match jobs with Some j -> j | None -> Pool.default_jobs () in
  if jobs_used < 1 then Error "Sweep.run: jobs must be >= 1"
  else if spec.packets < 1 then Error "Sweep.run: packets must be >= 1"
  else begin
    let cell_list = cells spec in
    if cell_list = [] then Error "Sweep.run: empty grid"
    else begin
      (* Resolve every driver before dispatch so worker domains never
         touch the registry's mutable tables. *)
      match Protocols.Driver.find_all spec.drivers with
      | Error msg -> Error msg
      | Ok driver_pairs ->
        (* Per-cell streams, split off the master in index order before
           anything runs: stream identity = cell index. *)
        let master = Scmp_util.Prng.create spec.master_seed in
        let streams =
          Array.init (List.length cell_list) (fun _ ->
              Scmp_util.Prng.split master)
        in
        let tasks =
          List.map
            (fun cell -> (cell, List.assoc cell.driver driver_pairs))
            cell_list
        in
        let run_all () =
          Pool.with_pool ~jobs:jobs_used (fun pool ->
              Pool.map pool tasks ~f:(fun i (cell, driver) ->
                  run_cell ~check spec driver cell streams.(i)))
        in
        (try
           let results, wall_s = Obs.Clock.time run_all in
           let seq_estimate_s =
             List.fold_left
               (fun acc (r : cell_result) -> acc +. r.wall_s)
               0.0 results
           in
           let report =
             merged_report spec results ~jobs_used ~wall_s ~seq_estimate_s
           in
           Ok
             {
               report;
               cell_results = results;
               wall_s;
               seq_estimate_s;
               jobs_used;
             }
         with
        | Pool.Task_error (i, Check.Invariant.Violation msg) ->
          Error
            (Printf.sprintf "cell %s: invariant violation: %s"
               (cell_name (List.nth cell_list i))
               msg)
        | Pool.Task_error (i, e) ->
          Error
            (Printf.sprintf "cell %s: %s"
               (cell_name (List.nth cell_list i))
               (Printexc.to_string e)))
    end
  end
