(* Integration tests: cross-library scenarios asserting the paper's
   headline claims hold on this implementation (the properties behind
   Figs 7, 8 and 9), plus end-to-end domain workloads. *)

module A = Netgraph.Apsp
module Eval = Mtree.Eval
module Bound = Mtree.Bound
module Runner = Protocols.Runner
module Driver = Protocols.Driver
module Prng = Scmp_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Every simulated run in this file executes with the invariant
   verifier armed: Check.Invariant checkpoints fire just before the
   data phase and again at quiescence, raising on any tree/entry/
   delay/delivery violation (see lib/check and docs/ANALYSIS.md). *)
let run = Runner.run ~check:true

(* ---------------- Fig 7 properties ---------------- *)

let tree_setup seed k =
  let spec = Topology.Waxman.generate ~seed ~n:100 () in
  let apsp = A.compute spec.Topology.Spec.graph in
  let root = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let rng = Prng.create (seed * 7919) in
  let members =
    Prng.sample rng k 100 |> List.filter (fun x -> x <> root)
  in
  (apsp, root, members)

let test_fig7_tightest_delay_equals_spt () =
  (* "When the delay constraint is at the tightest level, DCDM can
     achieve the same tree delay as SPT." *)
  for seed = 1 to 5 do
    let apsp, root, members = tree_setup seed 30 in
    let dcdm = Mtree.Dcdm.build apsp ~root ~bound:Bound.Tightest ~members in
    let spt = Mtree.Spt.build apsp ~root ~members in
    Alcotest.check (Alcotest.float 1e-6)
      (Printf.sprintf "seed %d" seed)
      (Eval.tree_delay spt) (Eval.tree_delay dcdm)
  done

let test_fig7_cost_ordering () =
  (* "The tree cost of SPT is the highest, while KMB is the lowest.
     DCDM achieves the tree cost between KMB and SPT." Averaged over
     seeds, as in the paper's plots. *)
  let sums = Array.make 3 0.0 in
  let seeds = 6 in
  for seed = 1 to seeds do
    let apsp, root, members = tree_setup seed 40 in
    let cost t = Eval.tree_cost t in
    sums.(0) <- sums.(0) +. cost (Mtree.Kmb.build apsp ~root ~members);
    sums.(1) <-
      sums.(1) +. cost (Mtree.Dcdm.build apsp ~root ~bound:Bound.Moderate ~members);
    sums.(2) <- sums.(2) +. cost (Mtree.Spt.build apsp ~root ~members)
  done;
  checkb "KMB < DCDM" true (sums.(0) < sums.(1));
  checkb "DCDM < SPT" true (sums.(1) < sums.(2))

let test_fig7_looser_constraint_cheaper_trees () =
  (* "When the delay constraint is looser, the gap between DCDM and KMB
     is smaller." *)
  let sums_tight = ref 0.0 and sums_loose = ref 0.0 and sums_kmb = ref 0.0 in
  for seed = 1 to 6 do
    let apsp, root, members = tree_setup (seed + 20) 30 in
    sums_tight :=
      !sums_tight
      +. Eval.tree_cost (Mtree.Dcdm.build apsp ~root ~bound:Bound.Tightest ~members);
    sums_loose :=
      !sums_loose
      +. Eval.tree_cost (Mtree.Dcdm.build apsp ~root ~bound:Bound.Loosest ~members);
    sums_kmb := !sums_kmb +. Eval.tree_cost (Mtree.Kmb.build apsp ~root ~members)
  done;
  checkb "loosest cheaper than tightest" true (!sums_loose < !sums_tight);
  checkb "loosest within 15% of KMB" true (!sums_loose < !sums_kmb *. 1.15)

(* ---------------- Fig 8/9 properties ---------------- *)

let network_results seed size =
  let spec = Topology.Flat_random.generate ~seed ~n:50 ~avg_degree:3.0 in
  let apsp = A.compute spec.Topology.Spec.graph in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let rng = Prng.create (seed * 31 + size) in
  let members = Prng.sample rng size 50 |> List.filter (fun x -> x <> center) in
  let sc = Runner.make ~spec ~center ~source:(List.hd members) ~members () in
  List.map (fun d -> (Driver.name d, run d sc)) (Driver.all ())

(* Averages keyed by driver name: [avg "scmp"], [avg "pim-sm"], ... *)
let avg_over_seeds size pick =
  let per_protocol = Hashtbl.create 8 in
  let seeds = [ 2; 3; 4 ] in
  List.iter
    (fun seed ->
      List.iter
        (fun (p, r) ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt per_protocol p) in
          Hashtbl.replace per_protocol p (prev +. pick r))
        (network_results seed size))
    seeds;
  fun p -> Hashtbl.find per_protocol p /. float_of_int (List.length seeds)

let test_fig8_data_overhead_ordering () =
  (* "SCMP always has the lowest data overhead … DVMRP has much higher
     data overhead." *)
  let avg = avg_over_seeds 20 (fun r -> r.Runner.data_overhead) in
  checkb "SCMP < CBT" true (avg "scmp" < avg "cbt");
  checkb "SCMP < MOSPF" true (avg "scmp" < avg "mospf");
  checkb "SCMP < DVMRP" true (avg "scmp" < avg "dvmrp");
  checkb "DVMRP much higher (>20% above CBT)" true
    (avg "dvmrp" > avg "cbt" *. 1.2)

let test_fig8_protocol_overhead_ordering () =
  (* "MOSPF has the steepest curve … CBT and SCMP have the least
     protocol overhead", with CBT slightly below SCMP. *)
  let avg = avg_over_seeds 20 (fun r -> r.Runner.protocol_overhead) in
  checkb "MOSPF dominates everyone" true
    (avg "mospf" > avg "scmp"
    && avg "mospf" > avg "cbt"
    && avg "mospf" > avg "dvmrp");
  checkb "CBT below SCMP" true (avg "cbt" < avg "scmp");
  checkb "SCMP below DVMRP" true (avg "scmp" < avg "dvmrp")

let test_fig8_dvmrp_overhead_decreases_with_group_size () =
  (* dense-mode pruning: more members, fewer prunes *)
  let small = avg_over_seeds 8 (fun r -> r.Runner.protocol_overhead) in
  let large = avg_over_seeds 40 (fun r -> r.Runner.protocol_overhead) in
  checkb "DVMRP overhead shrinks as the group grows" true
    (large "dvmrp" < small "dvmrp");
  (* while MOSPF's grows steeply *)
  checkb "MOSPF overhead grows" true (large "mospf" > small "mospf" *. 2.0)

let test_fig9_delay_ordering () =
  (* "the delay of CBT and SCMP is very close and slightly longer than
     the SPT-based protocols" *)
  let avg = avg_over_seeds 20 (fun r -> r.Runner.max_delay) in
  checkb "DVMRP = MOSPF (both SPT)" true
    (Float.abs (avg "dvmrp" -. avg "mospf") < 1e-9);
  checkb "shared trees no faster than SPT" true
    (avg "scmp" >= avg "mospf" -. 1e-9
    && avg "cbt" >= avg "mospf" -. 1e-9);
  checkb "but within 2x" true (avg "scmp" < avg "mospf" *. 2.0)

let test_all_protocols_exactly_once_across_topologies () =
  List.iter
    (fun spec ->
      let apsp = A.compute spec.Topology.Spec.graph in
      let n = Netgraph.Graph.node_count spec.Topology.Spec.graph in
      let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
      let rng = Prng.create 77 in
      let members =
        Prng.sample rng (min 12 (n - 1)) n |> List.filter (fun x -> x <> center)
      in
      let sc = Runner.make ~spec ~center ~source:(List.hd members) ~members () in
      List.iter
        (fun d ->
          let r = run d sc in
          let name =
            Driver.display d ^ " on " ^ spec.Topology.Spec.name
          in
          checki (name ^ ": missed") 0 r.Runner.missed;
          checki (name ^ ": dups") 0 r.Runner.duplicates;
          checki (name ^ ": spurious") 0 r.Runner.spurious)
        (Driver.all ()))
    [
      Topology.Arpanet.generate ~seed:3;
      Topology.Waxman.generate ~seed:3 ~n:60 ();
      Topology.Flat_random.generate ~seed:3 ~n:50 ~avg_degree:5.0;
    ]

let test_soak_200_nodes () =
  (* scale check: a 200-node Waxman domain, 60 members, every
     registered protocol still delivers exactly-once *)
  let spec = Topology.Waxman.generate ~seed:7 ~n:200 () in
  let apsp = A.compute spec.Topology.Spec.graph in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let rng = Prng.create 3 in
  let members =
    Prng.sample rng 60 200 |> List.filter (fun x -> x <> center)
  in
  let sc =
    Runner.make ~data_count:10 ~spec ~center ~source:(List.hd members) ~members
      ()
  in
  List.iter
    (fun d ->
      let r = run d sc in
      let name = Driver.display d in
      checki (name ^ " missed") 0 r.Runner.missed;
      checki (name ^ " dups") 0 r.Runner.duplicates;
      checki (name ^ " spurious") 0 r.Runner.spurious;
      checki (name ^ " delivered") (10 * (List.length members - 1)) r.Runner.deliveries)
    (Driver.all ())

(* ---------------- end-to-end domain workload ---------------- *)

let test_domain_conference_workload () =
  (* the video-conference example's shape, asserted: churn + many-to-
     many sends with exactly-once delivery and consistent fabric *)
  let spec = Topology.Waxman.generate ~seed:41 ~n:40 () in
  let d = Scmp.Domain.create ~spec ~fabric_ports:32 () in
  let g = Result.get_ok (Scmp.Domain.create_group d) in
  let sites = [ 2; 9; 16; 23; 31 ] in
  List.iter (fun s -> Scmp.Domain.join d ~group:g s) sites;
  Scmp.Domain.run d;
  for _round = 1 to 3 do
    List.iter (fun s -> Scmp.Domain.send d ~group:g ~src:s) sites;
    Scmp.Domain.run d
  done;
  (* 3 rounds x 5 speakers x 4 listeners *)
  checki "deliveries" 60 (Scmp.Domain.deliveries d);
  checki "duplicates" 0 (Scmp.Domain.duplicates d);
  checkb "fabric ok" true (Scmp.Domain.fabric_check d = Ok ());
  (* two sites leave, traffic continues *)
  Scmp.Domain.leave d ~group:g 2;
  Scmp.Domain.leave d ~group:g 31;
  Scmp.Domain.run d;
  (match Scmp.Domain.verify d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-churn invariant violated: %s" e);
  List.iter (fun s -> Scmp.Domain.send d ~group:g ~src:s) [ 9; 16; 23 ];
  Scmp.Domain.run d;
  checki "post-churn deliveries" (60 + 6) (Scmp.Domain.deliveries d);
  checki "still no dups" 0 (Scmp.Domain.duplicates d)

let test_domain_matches_mrouter_tree_invariants () =
  let spec = Topology.Flat_random.generate ~seed:43 ~n:45 ~avg_degree:4.0 in
  let d = Scmp.Domain.create ~spec () in
  let g = Result.get_ok (Scmp.Domain.create_group d) in
  let rng = Prng.create 51 in
  let members = ref [] in
  for _ = 1 to 30 do
    let x = Prng.int rng 45 in
    if x <> Scmp.Domain.mrouter d then begin
      if List.mem x !members then begin
        members := List.filter (fun y -> y <> x) !members;
        Scmp.Domain.leave d ~group:g x
      end
      else begin
        members := x :: !members;
        Scmp.Domain.join d ~group:g x
      end;
      Scmp.Domain.run d
    end
  done;
  (match Scmp.Domain.verify d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "churn invariant violated: %s" e);
  match Scmp.Domain.tree d ~group:g with
  | None -> checki "no members means no tree needed" 0 (List.length !members)
  | Some t ->
    checkb "tree valid" true (Mtree.Tree.well_formed t = Ok ());
    Alcotest.check
      Alcotest.(list int)
      "tree members match domain membership"
      (List.sort compare !members)
      (Mtree.Tree.members t)

let () =
  Alcotest.run "integration"
    [
      ( "fig7-properties",
        [
          Alcotest.test_case "tightest DCDM delay = SPT delay" `Quick
            test_fig7_tightest_delay_equals_spt;
          Alcotest.test_case "cost ordering KMB < DCDM < SPT" `Quick
            test_fig7_cost_ordering;
          Alcotest.test_case "looser constraint, cheaper tree" `Quick
            test_fig7_looser_constraint_cheaper_trees;
        ] );
      ( "fig8-properties",
        [
          Alcotest.test_case "data overhead ordering" `Slow
            test_fig8_data_overhead_ordering;
          Alcotest.test_case "protocol overhead ordering" `Slow
            test_fig8_protocol_overhead_ordering;
          Alcotest.test_case "DVMRP overhead decreases" `Slow
            test_fig8_dvmrp_overhead_decreases_with_group_size;
        ] );
      ( "fig9-properties",
        [ Alcotest.test_case "delay ordering" `Slow test_fig9_delay_ordering ] );
      ( "exactly-once",
        [
          Alcotest.test_case "all protocols, all topologies" `Slow
            test_all_protocols_exactly_once_across_topologies;
          Alcotest.test_case "200-node soak" `Slow test_soak_200_nodes;
        ] );
      ( "domain",
        [
          Alcotest.test_case "conference workload" `Quick test_domain_conference_workload;
          Alcotest.test_case "m-router tree invariants under churn" `Quick
            test_domain_matches_mrouter_tree_invariants;
        ] );
    ]
