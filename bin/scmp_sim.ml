(* scmp_sim — command-line driver for the SCMP reproduction.

   Subcommands:
     topo       generate/load/save/inspect a topology
     tree       build and compare multicast trees on a topology
     run        network-wide protocol simulation on one scenario
     sweep      a manifest's grid of runs, in parallel
     table      a sweep report's metric as figure tables
     placement  score the m-router placement rules

   Examples:
     scmp_sim topo --topo waxman:100 --seed 7 --save net.topo
     scmp_sim tree --load net.topo --group-size 20 --algo dcdm --bound moderate
     scmp_sim run --topo random3:100 --group-size 16 --protocol all
     scmp_sim sweep --manifest examples/scenarios/fig8.json --report r.json
     scmp_sim table r.json data_overhead
     scmp_sim placement --topo waxman:60 *)

open Cmdliner

(* ---------- shared topology selection ---------- *)

let topo_conv =
  Arg.conv
    ( (fun s ->
        Result.map_error (fun m -> `Msg m) (Exec.Sweep.topo_of_string s)),
      fun fmt t -> Format.pp_print_string fmt (Exec.Sweep.topo_to_string t) )

let topo_doc = "Topology: waxman:N, random3:N, random5:N or arpanet."

let topo_arg =
  Arg.(
    value
    & opt topo_conv (Exec.Sweep.Waxman 100)
    & info [ "topo" ] ~docv:"TOPO" ~doc:topo_doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE" ~doc:"Load a saved topology instead of generating.")

let make_topology topo seed load =
  match load with
  | Some path -> Topology.Io.load ~path
  | None -> (
    try Ok (Exec.Sweep.generate_topo topo seed)
    with Invalid_argument m -> Error m)

let or_die = function
  | Ok v -> v
  | Error m ->
    Printf.eprintf "error: %s\n" m;
    exit 1

(* Semantic CLI validation: Cmdliner rejects unknown flags and
   unparseable values, but a well-typed nonsense value (zero packets,
   a negative group size) must also die loudly before any work runs. *)
let usage_die cmd m =
  Printf.eprintf "scmp_sim %s: %s\nTry 'scmp_sim %s --help'.\n" cmd m cmd;
  exit 2

let require cmd cond m = if not cond then usage_die cmd m

(* ---------- topo ---------- *)

let topo_cmd =
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the topology to a file.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write a Graphviz rendering.")
  in
  let run topo seed load save dot =
    let spec = or_die (make_topology topo seed load) in
    let g = spec.Topology.Spec.graph in
    let apsp = Netgraph.Apsp.compute g in
    Printf.printf "%s: %d nodes, %d links, mean degree %.2f, diameter %.0f\n"
      spec.name (Netgraph.Graph.node_count g) (Netgraph.Graph.link_count g)
      (Netgraph.Graph.mean_degree g) (Netgraph.Apsp.diameter apsp);
    List.iter
      (fun rule ->
        Printf.printf "placement %-18s -> node %d\n" (Scmp.Placement.rule_name rule)
          (Scmp.Placement.pick apsp rule))
      Scmp.Placement.all_rules;
    (match save with
    | Some path ->
      or_die (Topology.Io.save spec ~path);
      Printf.printf "saved to %s\n" path
    | None -> ());
    match dot with
    | Some path ->
      or_die
        (Netgraph.Dot.write_file path
           (Netgraph.Dot.render ~name:spec.name ~coords:spec.coords g));
      Printf.printf "dot written to %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate, load, save or inspect a topology.")
    Term.(const run $ topo_arg $ seed_arg $ load_arg $ save $ dot)

(* ---------- tree ---------- *)

let algo_conv =
  Arg.conv
    ( (function
      | "dcdm" -> Ok `Dcdm
      | "kmb" -> Ok `Kmb
      | "spt" -> Ok `Spt
      | "all" -> Ok `All
      | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))),
      fun fmt a ->
        Format.pp_print_string fmt
          (match a with `Dcdm -> "dcdm" | `Kmb -> "kmb" | `Spt -> "spt" | `All -> "all")
    )

let bound_conv =
  Arg.conv
    ( (function
      | "tightest" -> Ok Mtree.Bound.Tightest
      | "moderate" -> Ok Mtree.Bound.Moderate
      | "loosest" -> Ok Mtree.Bound.Loosest
      | s -> (
        match float_of_string_opt s with
        | Some f when f >= 1.0 -> Ok (Mtree.Bound.Factor f)
        | _ -> Error (`Msg (Printf.sprintf "bad bound %S" s)))),
      fun fmt b -> Format.pp_print_string fmt (Mtree.Bound.to_string b) )

let tree_cmd =
  let algo =
    Arg.(
      value & opt algo_conv `All
      & info [ "algo" ] ~docv:"ALGO" ~doc:"dcdm, kmb, spt or all.")
  in
  let bound =
    Arg.(
      value
      & opt bound_conv Mtree.Bound.Tightest
      & info [ "bound" ] ~docv:"BOUND"
          ~doc:"Delay constraint: tightest, moderate, loosest or a factor >= 1.")
  in
  let group_size =
    Arg.(
      value & opt int 10
      & info [ "group-size"; "k" ] ~docv:"K" ~doc:"Number of random members.")
  in
  let members =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "members" ] ~docv:"A,B,C" ~doc:"Explicit member routers.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Render the (last) tree over the topology.")
  in
  let run topo seed load algo bound group_size members dot =
    require "tree" (group_size >= 1) "--group-size must be >= 1";
    let spec = or_die (make_topology topo seed load) in
    let g = spec.Topology.Spec.graph in
    let n = Netgraph.Graph.node_count g in
    let { Scmp.Setup.scenario = sc; apsp } =
      or_die
        (Scmp.Setup.draw ~rng:(Scmp_util.Prng.create (seed + 17)) ~group_size
           spec)
    in
    let root = sc.center in
    let members =
      match members with
      | Some ms ->
        List.iter
          (fun m ->
            if m < 0 || m >= n then or_die (Error (Printf.sprintf "member %d out of range" m)))
          ms;
        ms
      | None -> sc.members
    in
    Printf.printf "root (m-router): %d; members: [%s]\n" root
      (String.concat "; " (List.map string_of_int members));
    let build = function
      | `Dcdm -> ("DCDM", Mtree.Dcdm.build apsp ~root ~bound ~members)
      | `Kmb -> ("KMB", Mtree.Kmb.build apsp ~root ~members)
      | `Spt -> ("SPT", Mtree.Spt.build apsp ~root ~members)
      | `All -> assert false
    in
    let algos = match algo with `All -> [ `Dcdm; `Kmb; `Spt ] | a -> [ a ] in
    let last = ref None in
    Printf.printf "%-6s %12s %12s %8s\n" "algo" "tree cost" "tree delay" "routers";
    List.iter
      (fun a ->
        let name, tree = build a in
        last := Some tree;
        Printf.printf "%-6s %12.0f %12.0f %8d\n" name (Mtree.Eval.tree_cost tree)
          (Mtree.Eval.tree_delay tree) (Mtree.Tree.size tree))
      algos;
    match (dot, !last) with
    | Some path, Some tree ->
      let doc =
        Netgraph.Dot.render ~name:spec.name ~coords:spec.coords
          ~highlight:(Mtree.Tree.edges tree) ~members:(Mtree.Tree.members tree)
          ~root g
      in
      or_die (Netgraph.Dot.write_file path doc);
      Printf.printf "dot written to %s\n" path
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "tree" ~doc:"Build multicast trees and report quality metrics.")
    Term.(
      const run $ topo_arg $ seed_arg $ load_arg $ algo $ bound $ group_size
      $ members $ dot)

(* ---------- run ---------- *)

(* Protocols come from the driver list, so a newly added driver
   (e.g. pim-sm) is selectable by name with no CLI change. *)
let protocol_conv =
  Arg.conv
    ( (function
      | "all" -> Ok `All
      | s -> (
        match Protocols.Driver.find s with
        | Ok d -> Ok (`One d)
        | Error msg -> Error (`Msg msg))),
      fun fmt p ->
        Format.pp_print_string fmt
          (match p with `All -> "all" | `One d -> Protocols.Driver.name d) )

let run_cmd =
  let protocol =
    let doc =
      Printf.sprintf "Protocol: %s or all."
        (String.concat ", " (Protocols.Driver.names ()))
    in
    Arg.(value & opt protocol_conv `All & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc)
  in
  let group_size =
    Arg.(
      value & opt int 16
      & info [ "group-size"; "k" ] ~docv:"K" ~doc:"Number of random members.")
  in
  let packets =
    Arg.(value & opt int 30 & info [ "packets" ] ~docv:"N" ~doc:"Data packets to send.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"Write an NS-2-style packet trace.")
  in
  let trace_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-limit" ] ~docv:"N"
          ~doc:
            "Keep only the newest $(docv) trace lines (ring buffer); \
             $(docv) >= 1.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write a JSON run report (scmp-report/1) per protocol; with \
             --protocol all the protocol name is appended to the file stem.")
  in
  let loss =
    Arg.(
      value
      & opt (some float) None
      & info [ "loss" ] ~docv:"RATE"
          ~doc:
            "Random packet loss probability per link crossing, in [0, 1) \
             (the manifest's loss.rate).")
  in
  let loss_seed =
    Arg.(
      value & opt int 42
      & info [ "loss-seed" ] ~docv:"SEED" ~doc:"Seed for the loss coin flips.")
  in
  let loss_class =
    let cls_conv =
      Arg.conv
        ( (function
          | "all" -> Ok None
          | "data" -> Ok (Some `Data)
          | "control" -> Ok (Some `Control)
          | s -> Error (`Msg (Printf.sprintf "unknown packet class %S" s))),
          fun fmt c ->
            Format.pp_print_string fmt
              (match c with
              | None -> "all"
              | Some `Data -> "data"
              | Some `Control -> "control") )
    in
    Arg.(
      value & opt cls_conv None
      & info [ "loss-class" ] ~docv:"CLASS"
          ~doc:"Restrict --loss to one packet class: data, control or all.")
  in
  let fail_links =
    Arg.(
      value & opt_all string []
      & info [ "fail-link" ] ~docv:"A-B@T[:restore@T']"
          ~doc:
            "Fail link A-B at sim time T, optionally restoring it at T'. \
             A-B must be a link of the topology and T finite and >= 0. \
             Repeatable.")
  in
  let fail_nodes =
    Arg.(
      value & opt_all string []
      & info [ "fail-node" ] ~docv:"X@T[:restore@T']"
          ~doc:
            "Fail node X at sim time T, optionally restoring it at T'. X \
             must be a node of the topology and T finite and >= 0. \
             Repeatable.")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Draw --fault-count random link failures from this seed \
             (uniform over links and over the data phase).")
  in
  let fault_count =
    Arg.(
      value & opt int 1
      & info [ "fault-count" ] ~docv:"N"
          ~doc:"How many random link failures --fault-seed injects (>= 1).")
  in
  let partitions =
    Arg.(
      value & opt_all string []
      & info [ "partition" ] ~docv:"A,B,C@T[:heal@T']"
          ~doc:
            "Partition the listed nodes from the rest at sim time T \
             (every link across the cut fails atomically), optionally \
             healing the cut at T'. The nodes must be in the topology and \
             leave at least one node out; T finite and >= 0. Repeatable.")
  in
  let churn_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "churn-rate" ] ~docv:"RATE"
          ~doc:
            "Seeded Poisson membership churn: $(docv) join arrivals per \
             sim second drawn from the non-scripted routers, each \
             staying for an exponential holding time (--churn-hold). \
             1/$(docv) is the manifest's churn.interarrival and must be \
             positive and finite.")
  in
  let churn_hold =
    Arg.(
      value & opt float 5.0
      & info [ "churn-hold" ] ~docv:"SECONDS"
          ~doc:
            "Mean holding time of a churn member (sim seconds, positive \
             and finite).")
  in
  let churn_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "churn-seed" ] ~docv:"SEED"
          ~doc:"Seed of the churn process (default: topology seed + 31).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Verify protocol invariants on the quiesced network (and, on \
             an unperturbed run, packet conservation and a pre-data \
             checkpoint).")
  in
  let run topo seed load protocol group_size packets trace trace_limit report
      loss loss_seed loss_class fail_links fail_nodes partitions fault_seed
      fault_count churn_rate churn_hold churn_seed check =
    require "run" (group_size >= 1) "--group-size must be >= 1";
    require "run" (packets >= 1) "--packets must be >= 1";
    require "run"
      (Option.fold ~none:true ~some:(fun l -> l >= 1) trace_limit)
      "--trace-limit must be >= 1";
    let perturbation =
      {
        Exec.Sweep.loss =
          Option.map
            (fun rate -> { Eventsim.Netsim.rate; seed = loss_seed; only = loss_class })
            loss;
        link_failures = fail_links;
        node_failures = fail_nodes;
        partitions;
        random_link_failures =
          Option.map
            (fun rf_seed ->
              { Exec.Sweep.rf_seed; rf_count = fault_count; rf_restore_after = None })
            fault_seed;
        churn =
          Option.map
            (fun rate ->
              {
                Exec.Sweep.cs_interarrival = 1.0 /. rate;
                cs_holding = churn_hold;
                cs_seed = churn_seed;
              })
            churn_rate;
      }
    in
    Result.iter_error (usage_die "run")
      (Exec.Sweep.validate_perturbation perturbation);
    let spec = or_die (make_topology topo seed load) in
    let n = Netgraph.Graph.node_count spec.Topology.Spec.graph in
    let { Scmp.Setup.scenario = base; _ } =
      or_die
        (Scmp.Setup.draw ~rng:(Scmp_util.Prng.create (seed + 23)) ~group_size
           ~packets spec)
    in
    let sc =
      match Exec.Sweep.perturb perturbation ~seed base with
      | Ok sc -> sc
      | Error msg -> usage_die "run" msg
    in
    let sc = { sc with trace_path = trace; trace_limit } in
    let { Protocols.Runner.center; source; members; _ } = sc in
    let perturbed =
      sc.Protocols.Runner.loss <> None || sc.faults <> [] || sc.churn <> None
    in
    let drivers =
      match protocol with `All -> Protocols.Driver.all () | `One d -> [ d ]
    in
    let report_path_for name =
      match report with
      | None -> None
      | Some path when List.length drivers = 1 -> Some path
      | Some path ->
        let stem, ext =
          match Filename.chop_suffix_opt ~suffix:".json" path with
          | Some stem -> (stem, ".json")
          | None -> (path, "")
        in
        Some (Printf.sprintf "%s-%s%s" stem name ext)
    in
    Printf.printf
      "%s: %d members (source %d, m-router/core %d), %d packets at 1/s\n\n"
      spec.name (List.length members) source center packets;
    Printf.printf "%-7s %14s %16s %10s %10s %s\n" "proto" "data overhead"
      "protocol overhead" "max delay" "delivered" "anomalies";
    List.iter
      (fun d ->
        let name = Protocols.Driver.name d in
        let rep = Option.map (fun _ -> Obs.Report.create ~name ()) report in
        let write_report () =
          match (rep, report_path_for name) with
          | Some rep, Some path ->
            or_die (Obs.Report.write ~pretty:true rep ~path);
            Printf.printf "  report written to %s\n" path
          | _ -> ()
        in
        let r =
          try Protocols.Runner.run ~check ?report:rep d sc
          with Check.Invariant.Violation msg ->
            write_report ();
            or_die (Error msg)
        in
        Printf.printf "%-7s %14.0f %16.0f %9.4fs %10d %s\n"
          (Protocols.Driver.display d)
          r.Protocols.Runner.data_overhead r.protocol_overhead r.max_delay
          r.deliveries
          (if r.duplicates + r.spurious + r.missed = 0 then "none"
           else
             Printf.sprintf "dup=%d spur=%d miss=%d" r.duplicates r.spurious
               r.missed);
        if perturbed then begin
          Printf.printf "  delivery ratio %.4f, %d packets dropped\n"
            r.delivery_ratio r.dropped;
          Printf.printf
            "  routing: %d reconvergences, %d SPT cache fills (eager would run \
             %d), %d invalidated\n"
            r.routes_epochs r.spt_computed
            (n * (r.routes_epochs + 1))
            r.spt_invalidated
        end;
        write_report ())
      drivers
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Packet-level protocol comparison on one scenario.")
    Term.(
      const run $ topo_arg $ seed_arg $ load_arg $ protocol $ group_size
      $ packets $ trace $ trace_limit $ report $ loss $ loss_seed $ loss_class
      $ fail_links $ fail_nodes $ partitions $ fault_seed $ fault_count
      $ churn_rate $ churn_hold $ churn_seed $ check)

(* ---------- sweep ---------- *)

(* Shared by the parallel subcommands, sweep and chaos. [--drivers all]
   stands for every driver. *)
let drivers_arg =
  let doc =
    Printf.sprintf "Comma-separated protocols (%s) or all."
      (String.concat ", " (Protocols.Driver.names ()))
  in
  Term.(
    const (function [ "all" ] -> Protocols.Driver.names () | names -> names)
    $ Arg.(
        value & opt (list string) [ "scmp" ]
        & info [ "drivers"; "driver" ] ~docv:"NAMES" ~doc))

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains (default: the machine's recommended domain \
           count). Any value yields a byte-identical report.")

let sweep_cmd =
  let topos =
    Arg.(
      value
      & opt_all topo_conv [ Exec.Sweep.Random3 50 ]
      & info [ "topo" ] ~docv:"TOPO" ~doc:(topo_doc ^ " Repeatable."))
  in
  let group_sizes =
    Arg.(
      value
      & opt (list int) [ 16 ]
      & info [ "group-sizes" ] ~docv:"K,K,..." ~doc:"Group sizes to sweep.")
  in
  let seeds =
    Arg.(
      value
      & opt (list int) [ 1; 2 ]
      & info [ "seeds" ] ~docv:"S,S,..." ~doc:"Topology seeds to sweep.")
  in
  let packets =
    Arg.(
      value & opt int 30
      & info [ "packets" ] ~docv:"N" ~doc:"Data packets per cell.")
  in
  let master_seed =
    Arg.(
      value & opt int 1
      & info [ "master-seed" ] ~docv:"SEED"
          ~doc:"Root seed of the per-cell member-sampling streams.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the merged sweep report (scmp-report/1, deterministic \
             serialization without wall-clock metrics).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Run the protocol invariant verifier in every cell.")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Run the sweep described by a scmp-scenario/1 manifest file. \
             The manifest replaces the grid flags (--topo, --drivers, \
             --group-sizes, --seeds, --packets, --master-seed); --jobs, \
             --report and --check still apply.")
  in
  let run topos drivers group_sizes seeds packets master_seed jobs report check
      manifest =
    let m =
      match manifest with
      | Some path -> or_die (Scenario.Manifest.load ~path)
      | None -> (
        match
          Scenario.Manifest.validate
            (Scenario.Manifest.grid ~name:"sweep" ~drivers ~topos ~group_sizes
               ~seeds ~packets ~master_seed ~check)
        with
        | Ok m -> m
        | Error msg -> usage_die "sweep" msg)
    in
    let spec = Scenario.Manifest.to_sweep m in
    let check = check || m.check in
    let o = or_die (Exec.Sweep.run ~check ?jobs spec) in
    Printf.printf "%-32s %14s %16s %10s %10s %9s\n" "cell" "data overhead"
      "protocol overhead" "max delay" "delivered" "wall";
    List.iter
      (fun (cr : Exec.Sweep.cell_result) ->
        let r = cr.result in
        Printf.printf "%-32s %14.0f %16.0f %9.4fs %10d %8.0fms\n"
          (Exec.Sweep.cell_name cr.cell)
          r.Protocols.Runner.data_overhead r.protocol_overhead r.max_delay
          r.deliveries
          (1000.0 *. cr.wall_s))
      o.cell_results;
    Printf.printf
      "\n%d cells on %d jobs: %.2f s wall (%.1f cells/s), sequential estimate \
       %.2f s, speedup %.2fx\n"
      (List.length o.cell_results)
      o.jobs_used o.wall_s
      (float_of_int (List.length o.cell_results) /. o.wall_s)
      o.seq_estimate_s
      (o.seq_estimate_s /. o.wall_s);
    match report with
    | None -> ()
    | Some path ->
      or_die (Obs.Report.write ~wallclock:false ~pretty:true o.report ~path);
      Printf.printf "report written to %s\n" path
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a scenario grid in parallel with a deterministic merged report.")
    Term.(
      const run $ topos $ drivers_arg $ group_sizes $ seeds $ packets
      $ master_seed $ jobs_arg $ report $ check $ manifest)

(* ---------- trace-stats ---------- *)

let trace_stats_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Trace file from run --trace.")
  in
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"How many top links/kinds.")
  in
  let run file top =
    let ic =
      try open_in file
      with Sys_error e -> or_die (Error e)
    in
    let links = Hashtbl.create 64 in
    let kinds = Hashtbl.create 16 in
    let drops = Hashtbl.create 4 in
    let control = ref 0 and data = ref 0 and total = ref 0 and dropped = ref 0 in
    let t_min = ref infinity and t_max = ref neg_infinity in
    let bump tbl key =
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
    in
    let stamp time =
      match float_of_string_opt time with
      | Some t ->
        if t < !t_min then t_min := t;
        if t > !t_max then t_max := t
      | None -> ()
    in
    (* A directory opens but fails at the first read. *)
    (try
       while true do
         let line = input_line ic in
         match String.split_on_char ' ' line with
         | time :: _ :: _ :: "X" :: reason :: _ ->
           (* A drop is no crossing: its src/dst need not be a link
              (no_route, node_down) and its reason is no message kind. *)
           incr dropped;
           stamp time;
           bump drops reason
         | time :: src :: dst :: cls :: descr :: _ ->
           incr total;
           stamp time;
           (match cls with
           | "C" -> incr control
           | "D" -> incr data
           | _ -> ());
           (match (int_of_string_opt src, int_of_string_opt dst) with
           | Some a, Some b -> bump links (min a b, max a b)
           | _ -> ());
           bump kinds descr
         | _ -> ()
       done
     with
    | End_of_file -> close_in ic
    | Sys_error e -> or_die (Error (Printf.sprintf "%s: %s" file e)));
    Printf.printf "%d crossings (%d control, %d data) over %.4f s\n" !total
      !control !data
      (if !t_max >= !t_min then !t_max -. !t_min else 0.0);
    let ranked tbl =
      Hashtbl.fold (fun k v acc -> (v, k) :: acc) tbl []
      |> List.sort (fun a b -> compare b a)
    in
    Printf.printf "%d drops%s\n" !dropped
      (match ranked drops with
      | [] -> ""
      | rs ->
        Printf.sprintf " (%s)"
          (String.concat ", "
             (List.map (fun (count, reason) -> Printf.sprintf "%s %d" reason count) rs)));
    Printf.printf "\nbusiest links:\n";
    List.iteri
      (fun i (count, (a, b)) ->
        if i < top then Printf.printf "  %d-%d  %d crossings\n" a b count)
      (ranked links);
    Printf.printf "\nmessage kinds:\n";
    List.iteri
      (fun i (count, kind) ->
        if i < top then Printf.printf "  %-14s %d\n" kind count)
      (ranked kinds)
  in
  Cmd.v
    (Cmd.info "trace-stats" ~doc:"Summarize a packet trace produced by run --trace.")
    Term.(const run $ file $ top)

(* ---------- placement ---------- *)

let placement_cmd =
  let group_size =
    Arg.(value & opt int 15 & info [ "group-size"; "k" ] ~docv:"K" ~doc:"Group size.")
  in
  let trials =
    Arg.(value & opt int 30 & info [ "trials" ] ~docv:"T" ~doc:"Member sets per candidate.")
  in
  let run topo seed load group_size trials =
    let spec = or_die (make_topology topo seed load) in
    let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
    Printf.printf "%-22s %-6s %s\n" "rule" "node" "mean DCDM tree cost";
    List.iter
      (fun rule ->
        let node = Scmp.Placement.pick apsp rule in
        let score =
          Scmp.Placement.evaluate apsp ~candidate:node ~bound:Mtree.Bound.Moderate
            ~group_size ~trials ~seed
        in
        Printf.printf "%-22s %-6d %.0f\n" (Scmp.Placement.rule_name rule) node score)
      Scmp.Placement.all_rules
  in
  Cmd.v
    (Cmd.info "placement" ~doc:"Score the §IV.A m-router placement rules.")
    Term.(const run $ topo_arg $ seed_arg $ load_arg $ group_size $ trials)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let topos =
    Arg.(
      value
      & opt_all topo_conv [ Exec.Sweep.Waxman 40 ]
      & info [ "topo" ] ~docv:"TOPO" ~doc:(topo_doc ^ " Repeatable."))
  in
  let trials =
    Arg.(
      value & opt int 20
      & info [ "trials" ] ~docv:"N" ~doc:"Trials per driver x topology.")
  in
  let packets =
    Arg.(
      value & opt int 12
      & info [ "packets" ] ~docv:"N" ~doc:"Data packets per trial.")
  in
  let group_size =
    Arg.(
      value & opt int 8
      & info [ "group-size"; "k" ] ~docv:"K"
          ~doc:"Members sampled per trial.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Master seed of the campaign; every trial's topology, members \
             and fault program derive from it.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the merged campaign report (scmp-report/1, \
             deterministic serialization without wall-clock metrics).")
  in
  let run topos drivers trials packets group_size seed jobs report =
    require "chaos" (trials >= 1) "--trials must be >= 1";
    require "chaos" (packets >= 1) "--packets must be >= 1";
    require "chaos" (group_size >= 1) "--group-size must be >= 1";
    require "chaos" (drivers <> []) "--drivers must be non-empty";
    let spec =
      Exec.Chaos.make ~packets ~group_size ~seed ~drivers ~topos ~trials ()
    in
    let o = or_die (Exec.Chaos.run ?jobs spec) in
    Printf.printf "%-28s %-8s %9s %7s %6s %s\n" "trial" "status" "delivered"
      "ratio" "faults" "program";
    List.iter
      (fun (tr : Exec.Chaos.trial_result) ->
        let faults =
          List.fold_left
            (fun a (u : Exec.Chaos.fault_unit) -> a + List.length u.events)
            0 tr.trial.program
        in
        match tr.status with
        | Exec.Chaos.Passed r ->
          Printf.printf "%-28s %-8s %9d %7.4f %6d %s\n"
            (Exec.Chaos.trial_name tr.trial)
            "ok" r.Protocols.Runner.deliveries r.delivery_ratio faults
            (String.concat "; "
               (List.map
                  (fun (u : Exec.Chaos.fault_unit) -> u.label)
                  tr.trial.program))
        | Exec.Chaos.Tripped msg ->
          Printf.printf "%-28s %-8s %9s %7s %6d %s\n"
            (Exec.Chaos.trial_name tr.trial)
            "TRIPPED" "-" "-" faults
            (String.sub msg 0 (min 60 (String.length msg))))
      o.results;
    Printf.printf "\n%d trials on %d jobs in %.2f s: %d violation(s)\n"
      (List.length o.results) o.jobs_used o.wall_s
      (List.length o.violations);
    if o.blackouts <> [] then
      Printf.printf
        "blackout over %d samples: p50 %.3f s, p95 %.3f s, max %.3f s\n"
        (List.length o.blackouts)
        (Scmp_util.Stats.percentile_l 50.0 o.blackouts)
        (Scmp_util.Stats.percentile_l 95.0 o.blackouts)
        (Scmp_util.Stats.percentile_l 100.0 o.blackouts);
    List.iter
      (fun (v : Exec.Chaos.violation) ->
        Printf.printf "\n%s VIOLATED: %s\n  minimal schedule: %s\n  trips: %s\n"
          (Exec.Chaos.trial_name v.v_trial)
          v.message
          (Exec.Chaos.program_to_string v.minimal)
          v.minimal_message)
      o.violations;
    (match report with
    | None -> ()
    | Some path ->
      or_die (Obs.Report.write ~wallclock:false ~pretty:true o.report ~path);
      Printf.printf "report written to %s\n" path);
    if o.violations <> [] then exit 3
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded chaos campaign: randomized fault programs with the \
          invariant verifier on; exits 3 when a trial trips an invariant.")
    Term.(
      const run $ topos $ drivers_arg $ trials $ packets $ group_size $ seed
      $ jobs_arg $ report)

(* ---------- ab ---------- *)

let read_json_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> (
    match Obs.Json.of_string s with
    | Ok j -> j
    | Error e -> or_die (Error (Printf.sprintf "%s: %s" path e)))
  | exception Sys_error e -> or_die (Error e)

let ab_cmd =
  let old_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline scmp-report/1 file.")
  in
  let new_file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Fresh scmp-report/1 file to judge.")
  in
  let profile =
    Arg.(
      value & opt string "default"
      & info [ "profile" ] ~docv:"NAME"
          ~doc:"Rule profile: default (10% band on everything) or bench.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the scmp-ab/1 comparison document.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Print only the summary line.")
  in
  let run old_file new_file profile report quiet =
    let rules = or_die (Scenario.Ab.profile_of_string profile) in
    let old_json = read_json_file old_file in
    let new_json = read_json_file new_file in
    let o = or_die (Scenario.Ab.compare_reports ~rules ~old_json ~new_json ()) in
    if not quiet then begin
      Printf.printf "%-44s %14s %14s %8s %s\n" "metric" "old" "new" "rel"
        "status";
      List.iter
        (fun (d : Scenario.Ab.delta) ->
          if d.status <> Scenario.Ab.Within then
            let fv = function Some v -> Printf.sprintf "%.6g" v | None -> "-" in
            Printf.printf "%-44s %14s %14s %8s %s\n" d.metric (fv d.old_value)
              (fv d.new_value)
              (match d.rel with
              | Some r -> Printf.sprintf "%+.1f%%" (100.0 *. r)
              | None -> "-")
              (Scenario.Ab.status_label d.status))
        o.deltas
    end;
    Printf.printf
      "%s: %d compared, %d within, %d regressed, %d improved, %d info, %d \
       missing, %d added\n"
      (if Scenario.Ab.passed o then "PASS" else "FAIL")
      o.compared o.within o.regressed o.improved o.informational o.missing
      o.added;
    (match report with
    | None -> ()
    | Some path ->
      let doc =
        Scenario.Ab.to_json ~old_name:(Filename.basename old_file)
          ~new_name:(Filename.basename new_file) o
      in
      (match
         Out_channel.with_open_text path (fun oc ->
             Out_channel.output_string oc
               (Obs.Json.to_string ~pretty:true doc);
             Out_channel.output_char oc '\n')
       with
      | () -> ()
      | exception Sys_error e -> or_die (Error e)));
    if not (Scenario.Ab.passed o) then exit 4
  in
  Cmd.v
    (Cmd.info "ab"
       ~doc:
         "Diff two scmp-report/1 files with noise-aware per-metric tolerance \
          bands; exits 4 on regression or missing metric.")
    Term.(const run $ old_file $ new_file $ profile $ report $ quiet)

(* ---------- metric ---------- *)

let metric_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A scmp-report/1 file.")
  in
  let key =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"KEY" ~doc:"Metric key, e.g. scmp/repair/count.")
  in
  let ge =
    Arg.(
      value
      & opt (some float) None
      & info [ "ge" ] ~docv:"X" ~doc:"Assert value >= X.")
  in
  let le =
    Arg.(
      value
      & opt (some float) None
      & info [ "le" ] ~docv:"X" ~doc:"Assert value <= X.")
  in
  let eq =
    Arg.(
      value
      & opt (some float) None
      & info [ "eq" ] ~docv:"X" ~doc:"Assert value = X.")
  in
  let run file key ge le eq =
    let v = or_die (Scenario.Ab.metric_value (read_json_file file) key) in
    Printf.printf "%.17g\n" v;
    let fail op x =
      Printf.eprintf "assertion failed: %s = %.17g is not %s %.17g\n" key v op
        x;
      exit 4
    in
    (match ge with Some x when not (v >= x) -> fail ">=" x | _ -> ());
    (match le with Some x when not (v <= x) -> fail "<=" x | _ -> ());
    match eq with Some x when v <> x -> fail "=" x | _ -> ()
  in
  Cmd.v
    (Cmd.info "metric"
       ~doc:
         "Extract one metric from a scmp-report/1 file; errors loudly on a \
          missing key and exits 4 on a failed assertion.")
    Term.(const run $ file $ key $ ge $ le $ eq)

(* ---------- table ---------- *)

let table_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REPORT" ~doc:"A sweep's scmp-report/1 file.")
  in
  let metric =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"METRIC"
          ~doc:"Per-cell metric, e.g. data_overhead or max_delay.")
  in
  let run file metric =
    print_string
      (or_die (Scenario.Table.render (read_json_file file) ~metric))
  in
  Cmd.v
    (Cmd.info "table"
       ~doc:
         "Print one per-cell metric of a sweep report as one table per \
          topology: group sizes down, drivers across, seed means.")
    Term.(const run $ file $ metric)

let () =
  let doc = "Service-centric multicast (SCMP) simulator" in
  let info = Cmd.info "scmp_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            topo_cmd;
            tree_cmd;
            run_cmd;
            sweep_cmd;
            ab_cmd;
            metric_cmd;
            table_cmd;
            chaos_cmd;
            placement_cmd;
            trace_stats_cmd;
          ]))
