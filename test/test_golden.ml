(* Golden regression tests: pin the exact numbers the experiment
   pipeline produces for fixed seeds. Every layer is deterministic
   (SplitMix64 streams, FIFO event ordering), so any drift here means a
   behavioural change in topology generation, tree construction or a
   protocol — exactly the regressions a reproduction must not make
   silently. If a change is intentional, regenerate the constants with
   the printed actual values. *)

module A = Netgraph.Apsp
module Eval = Mtree.Eval
module Bound = Mtree.Bound
module Runner = Protocols.Runner
module Driver = Protocols.Driver
module Prng = Scmp_util.Prng

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg
let checki = Alcotest.check Alcotest.int

(* One Fig 7 cell: Waxman seed 1, n = 100, group size 30, rule-1 root. *)
let fig7_cell () =
  let spec = Topology.Waxman.generate ~seed:1 ~n:100 () in
  let apsp = A.compute spec.Topology.Spec.graph in
  let root = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let rng = Prng.create 7919 in
  let members =
    Prng.sample rng 30 100 |> List.filter (fun x -> x <> root)
  in
  (apsp, root, members)

let test_fig7_cell_golden () =
  let apsp, root, members = fig7_cell () in
  let dcdm_t = Mtree.Dcdm.build apsp ~root ~bound:Bound.Tightest ~members in
  let dcdm_l = Mtree.Dcdm.build apsp ~root ~bound:Bound.Loosest ~members in
  let kmb = Mtree.Kmb.build apsp ~root ~members in
  let spt = Mtree.Spt.build apsp ~root ~members in
  (* regenerate with: ./test_golden.exe --print *)
  checkf "DCDM tightest cost" 424387.0 (Eval.tree_cost dcdm_t);
  Alcotest.check (Alcotest.float 0.5) "DCDM tightest delay" 28335.2 (Eval.tree_delay dcdm_t);
  checkf "DCDM loosest cost" 364860.0 (Eval.tree_cost dcdm_l);
  checkf "KMB cost" 326749.0 (Eval.tree_cost kmb);
  checkf "SPT cost" 499694.0 (Eval.tree_cost spt);
  Alcotest.check (Alcotest.float 0.5) "SPT delay" 28335.2 (Eval.tree_delay spt)

(* One Fig 8/9 cell: ARPANET seed 1, 12 members, SCMP. *)
let fig89_scenario () =
  let spec = Topology.Arpanet.generate ~seed:1 in
  let apsp = A.compute spec.Topology.Spec.graph in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let rng = Prng.create (104729 + 12) in
  let members =
    Prng.sample rng 12 48 |> List.filter (fun x -> x <> center)
  in
  Runner.make ~spec ~center ~source:(List.hd members) ~members ()

let fig89_cell driver = Runner.run driver (fig89_scenario ())

let test_fig89_scmp_golden () =
  let r = fig89_cell (Driver.find_exn "scmp") in
  checki "deliveries" 330 r.Runner.deliveries;
  checki "anomalies" 0 (r.duplicates + r.spurious + r.missed);
  (* pinned to current behaviour; regenerate with --print *)
  Alcotest.check (Alcotest.float 0.5) "data overhead value" 2205000.0 r.data_overhead;
  Alcotest.check (Alcotest.float 0.5) "protocol overhead value" 634800.0
    r.protocol_overhead

(* The fig 8/9 cell again, perturbed: Poisson join/leave churn over the
   data window, and ARPANET link 23-24 fails at 15 s, inside it. *)
let churn_fault_cell driver =
  let sc = fig89_scenario () in
  let sc =
    {
      sc with
      Runner.faults =
        [ { Eventsim.Faults.at = 15.0; event = Eventsim.Faults.Link_down (23, 24) } ];
      churn =
        Some
          {
            Runner.mean_interarrival = 2.0;
            mean_holding = 5.0;
            horizon = Runner.data_end sc;
            churn_seed = 38;
          };
    }
  in
  Runner.run driver sc

(* The paper's three numbers plus the delivery count, printed exactly:
   a row moves only if some packet crossed a different link or arrived
   at a different instant. *)
let row (r : Runner.result) =
  Printf.sprintf "deliveries %d data %.17g protocol %.17g max-delay %.17g"
    r.deliveries r.data_overhead r.protocol_overhead r.max_delay

(* Every driver on both cells; regenerate with --print. *)
let six_driver_rows =
  [
    ( "fig89",
      fig89_cell,
      [
        ( "scmp",
          "deliveries 330 data 2205000 protocol 634800 max-delay 0.037466087098872336");
        ( "cbt",
          "deliveries 330 data 2385000 protocol 159000 max-delay 0.037466087098872336");
        ( "dvmrp",
          "deliveries 330 data 2939400 protocol 608400 max-delay 0.037466087098872336");
        ( "mospf",
          "deliveries 330 data 2331000 protocol 3457200 max-delay 0.037466087098872336");
        ( "pim-sm",
          "deliveries 330 data 2935800 protocol 275100 max-delay 0.039119442987573194");
        ( "hpim-dm",
          "deliveries 330 data 2533800 protocol 405600 max-delay 0.037466087098872336");
      ] );
    ( "churn+link-failure",
      churn_fault_cell,
      [
        ( "scmp",
          "deliveries 431 data 2617200 protocol 3015600 max-delay 0.040072703941941512");
        ( "cbt",
          "deliveries 366 data 2068800 protocol 293100 max-delay 0.03992338850577859");
        ( "dvmrp",
          "deliveries 424 data 3481800 protocol 597600 max-delay 0.03992338850577859");
        ( "mospf",
          "deliveries 431 data 2810400 protocol 15276600 max-delay 0.03992338850577859");
        ( "pim-sm",
          "deliveries 336 data 2772000 protocol 401100 max-delay 0.039119442987573194");
        ( "hpim-dm",
          "deliveries 431 data 3250800 protocol 579600 max-delay 0.03992338850577859");
      ] );
  ]

let test_six_driver_rows () =
  List.iter
    (fun (cell, run, rows) ->
      List.iter
        (fun (name, expected) ->
          Alcotest.(check string)
            (cell ^ " " ^ name) expected
            (row (run (Driver.find_exn name))))
        rows)
    six_driver_rows

let test_fig89_all_protocols_agree_on_delivery_count () =
  List.iter
    (fun d ->
      let r = fig89_cell d in
      checki (Driver.display d ^ " deliveries") 330 r.Runner.deliveries)
    (Driver.all ())

let () =
  (* First run prints actuals to ease (re)pinning. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then begin
    let apsp, root, members = fig7_cell () in
    let show name t =
      Printf.printf "%s: cost %.1f delay %.1f\n" name (Eval.tree_cost t)
        (Eval.tree_delay t)
    in
    show "DCDM tightest" (Mtree.Dcdm.build apsp ~root ~bound:Bound.Tightest ~members);
    show "DCDM loosest" (Mtree.Dcdm.build apsp ~root ~bound:Bound.Loosest ~members);
    show "KMB" (Mtree.Kmb.build apsp ~root ~members);
    show "SPT" (Mtree.Spt.build apsp ~root ~members);
    let r = fig89_cell (Driver.find_exn "scmp") in
    Printf.printf "SCMP arpanet: data %.1f proto %.1f\n" r.Runner.data_overhead
      r.protocol_overhead;
    List.iter
      (fun (cell, run, rows) ->
        List.iter
          (fun (name, _) ->
            Printf.printf "%s %s: %s\n" cell name (row (run (Driver.find_exn name))))
          rows)
      six_driver_rows;
    exit 0
  end;
  Alcotest.run "golden"
    [
      ( "experiment-pipeline",
        [
          Alcotest.test_case "fig7 cell" `Quick test_fig7_cell_golden;
          Alcotest.test_case "fig8/9 SCMP cell" `Quick test_fig89_scmp_golden;
          Alcotest.test_case "six drivers, two cells" `Quick test_six_driver_rows;
          Alcotest.test_case "delivery counts" `Quick
            test_fig89_all_protocols_agree_on_delivery_count;
        ] );
    ]
