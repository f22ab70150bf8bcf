(* The multicore sweep engine's contracts:

   - determinism: a sweep merged on 4 workers serializes byte-identical
     to the same sweep on 1 worker (the whole point of per-cell
     isolation + ordered reduce);
   - PRNG stream independence: a cell's split-derived stream depends on
     its index, never on what the parent generator does afterwards;
   - pool semantics: ordered results under oversubscription, exception
     propagation with the failing index, reusability after a failure,
     clean shutdown;
   - metric merge algebra: counters add, gauges max, histograms add
     pointwise, and the combine is order-insensitive. *)

module Pool = Exec.Pool
module Sweep = Exec.Sweep
module Prng = Scmp_util.Prng
module M = Obs.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------------- pool ---------------- *)

let test_pool_ordered_oversubscribed () =
  (* Far more items than workers; results must come back in submission
     order regardless of which worker ran what. *)
  Pool.with_pool ~jobs:4 (fun p ->
      let items = List.init 200 Fun.id in
      let out = Pool.map p items ~f:(fun i x -> i * 1000 + x) in
      checki "all results" 200 (List.length out);
      List.iteri (fun i v -> checki "in submission order" (i * 1000 + i) v) out)

let test_pool_exception_propagation () =
  Pool.with_pool ~jobs:3 (fun p ->
      (match
         Pool.map p (List.init 20 Fun.id) ~f:(fun i _ ->
             if i = 5 then failwith "boom" else i)
       with
      | _ -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error (i, Failure msg) ->
        checki "failing index" 5 i;
        checks "payload exception" "boom" msg
      | exception e -> raise e);
      (* lowest failing index wins when several tasks raise *)
      (match
         Pool.map p (List.init 20 Fun.id) ~f:(fun i _ ->
             if i >= 7 then failwith "multi" else i)
       with
      | _ -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error (i, _) -> checki "lowest index" 7 i
      | exception e -> raise e);
      (* the pool drained every task and stays usable *)
      let out = Pool.map p [ 1; 2; 3 ] ~f:(fun _ x -> x * 2) in
      checkb "usable after failure" true (out = [ 2; 4; 6 ]))

let test_pool_shutdown () =
  (* the pool outlives [with_pool], which has shut it down *)
  let p =
    Pool.with_pool ~jobs:2 (fun p ->
        checki "jobs" 2 (Pool.jobs p);
        ignore (Pool.map p [ 1; 2 ] ~f:(fun _ x -> x));
        p)
  in
  Pool.shutdown p (* idempotent *);
  match Pool.map p [ 1 ] ~f:(fun _ x -> x) with
  | _ -> Alcotest.fail "map after shutdown must raise"
  | exception Invalid_argument _ -> ()

(* ---------------- PRNG stream independence ---------------- *)

let test_prng_split_independence () =
  (* The sweep derives all cell streams before any cell runs. A child
     stream must be a pure function of the parent's state at split
     time: draws from the parent afterwards, or from sibling streams,
     must not change what the child produces. *)
  let a = Prng.create 42 in
  let child_a = Prng.split a in
  (* drain the parent and a sibling heavily *)
  let sibling = Prng.split a in
  for _ = 1 to 1000 do
    ignore (Prng.bits64 a);
    ignore (Prng.bits64 sibling)
  done;
  let b = Prng.create 42 in
  let child_b = Prng.split b in
  for i = 1 to 64 do
    Alcotest.check Alcotest.int64
      (Printf.sprintf "draw %d identical" i)
      (Prng.bits64 child_b) (Prng.bits64 child_a)
  done;
  (* and distinct indices get distinct streams *)
  let c = Prng.create 42 in
  let first = Prng.split c in
  let second = Prng.split c in
  checkb "stream 0 <> stream 1" false (Prng.bits64 first = Prng.bits64 second)

(* ---------------- metric merge algebra ---------------- *)

let test_metrics_merge () =
  let mk () = M.create () in
  let a = mk () and b = mk () in
  M.add (M.counter a "n") 3;
  M.add (M.counter b "n") 4;
  M.set (M.gauge a "g") 1.5;
  M.set (M.gauge b "g") 0.5;
  M.observe (M.histogram a "h") 0.5;
  M.observe (M.histogram b "h") 0.5;
  M.observe (M.histogram b "h") 200.0;
  M.add (M.counter b "only_b") 7;
  M.merge a b;
  checki "counters add" 7 (M.counter_value (M.counter a "n"));
  checkb "gauges keep the max" true (M.gauge_value (M.gauge a "g") = 1.5);
  checki "histogram counts add" 3 (M.histogram_count (M.histogram a "h"));
  checkb "histogram sums add" true
    (M.histogram_sum (M.histogram a "h") = 201.0);
  checki "new names copied over" 7 (M.counter_value (M.counter a "only_b"));
  checki "source untouched" 4 (M.counter_value (M.counter b "n"));
  (* kind mismatch is an error *)
  let c = mk () and d = mk () in
  ignore (M.counter c "x");
  ignore (M.gauge d "x");
  (match M.merge c d with
  | () -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ());
  (* commutativity on the JSON view *)
  let e = mk () and f = mk () in
  let fill m v =
    M.add (M.counter m "c") v;
    M.observe (M.histogram m "h") (float_of_int v)
  in
  fill e 1;
  fill f 2;
  let e' = mk () and f' = mk () in
  fill e' 1;
  fill f' 2;
  M.merge e f;
  M.merge f' e';
  checks "merge is commutative" (Obs.Json.to_string (M.to_json e))
    (Obs.Json.to_string (M.to_json f'))

(* ---------------- sweep determinism ---------------- *)

let sweep_spec () =
  Sweep.make ~packets:10 ~master_seed:7 ~drivers:[ "scmp"; "cbt" ]
    ~topos:[ Sweep.Random3 30 ] ~group_sizes:[ 6; 10 ] ~seeds:[ 1 ] ()

let run_sweep ~jobs =
  match Sweep.run ~jobs (sweep_spec ()) with
  | Ok o -> o
  | Error msg -> Alcotest.fail msg

let test_sweep_jobs_invariance () =
  let o1 = run_sweep ~jobs:1 in
  let o4 = run_sweep ~jobs:4 in
  checki "jobs recorded" 4 o4.Sweep.jobs_used;
  checki "all cells ran" 4 (List.length o4.cell_results);
  checks "merged report byte-identical across jobs"
    (Obs.Report.to_string ~wallclock:false o1.Sweep.report)
    (Obs.Report.to_string ~wallclock:false o4.Sweep.report);
  (* per-cell results identical too, in the same order *)
  List.iter2
    (fun (a : Sweep.cell_result) (b : Sweep.cell_result) ->
      checks "cell name" (Sweep.cell_name a.cell) (Sweep.cell_name b.cell);
      checkb "cell result equal" true
        (a.result.Protocols.Runner.deliveries
         = b.result.Protocols.Runner.deliveries
        && a.result.data_overhead = b.result.data_overhead
        && a.result.protocol_overhead = b.result.protocol_overhead
        && a.result.max_delay = b.result.max_delay))
    o1.cell_results o4.cell_results

(* ---- chaos campaigns ---- *)

module Chaos = Exec.Chaos

let chaos_spec () =
  Chaos.make ~packets:8 ~group_size:6 ~seed:13 ~drivers:[ "scmp" ]
    ~topos:[ Sweep.Waxman 30 ] ~trials:8 ()

let test_chaos_plan_pure () =
  let p1 = Chaos.plan (chaos_spec ()) in
  let p2 = Chaos.plan (chaos_spec ()) in
  checki "8 trials planned" 8 (List.length p1);
  checkb "plan is a pure function of the spec" true (p1 = p2);
  List.iteri
    (fun i (t : Chaos.trial) ->
      checki "indices in order" i t.Chaos.index;
      checkb "every trial has a fault program or loss" true
        (t.program <> [] || t.loss <> None))
    p1

let test_chaos_jobs_invariance () =
  let run jobs =
    match Chaos.run ~jobs (chaos_spec ()) with
    | Ok o -> o
    | Error msg -> Alcotest.fail msg
  in
  let o1 = run 1 in
  let o4 = run 4 in
  checki "all trials ran" 8 (List.length o4.Chaos.results);
  checki "campaign is violation-free" 0 (List.length o1.Chaos.violations);
  checks "campaign report byte-identical across jobs"
    (Obs.Report.to_string ~wallclock:false o1.Chaos.report)
    (Obs.Report.to_string ~wallclock:false o4.Chaos.report);
  checkb "blackout samples identical" true
    (o1.Chaos.blackouts = o4.Chaos.blackouts)

let test_chaos_errors () =
  (match
     Chaos.run ~jobs:1
       (Chaos.make ~drivers:[ "no-such-proto" ] ~topos:[ Sweep.Arpanet ]
          ~trials:2 ())
   with
  | Ok _ -> Alcotest.fail "unknown driver must fail"
  | Error msg -> checkb "error names the driver" true (String.length msg > 0));
  match
    Chaos.run ~jobs:1
      (Chaos.make ~drivers:[ "scmp" ] ~topos:[ Sweep.Arpanet ] ~trials:0 ())
  with
  | Ok _ -> Alcotest.fail "zero trials must fail"
  | Error _ -> ()

let test_sweep_grid_and_errors () =
  let cells = Sweep.cells (sweep_spec ()) in
  checki "grid size" 4 (List.length cells);
  checks "row-major order, drivers outermost" "scmp/random3:30/k6/s1"
    (Sweep.cell_name (List.hd cells));
  checki "indices sequential" 3 (List.nth cells 3).Sweep.index;
  (match
     Sweep.run ~jobs:1
       (Sweep.make ~drivers:[ "no-such-proto" ] ~topos:[ Sweep.Arpanet ]
          ~group_sizes:[ 4 ] ~seeds:[ 1 ] ())
   with
  | Ok _ -> Alcotest.fail "unknown driver must fail"
  | Error msg -> checkb "error names the driver" true
      (String.length msg > 0));
  match Sweep.topo_of_string "waxman:100" with
  | Ok (Sweep.Waxman 100) -> (
    match Sweep.topo_of_string "waxman:x" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "bad size must fail")
  | _ -> Alcotest.fail "topo_of_string waxman:100"

(* ---- the scenario builder ---- *)

(* The chain every experiment used to spell out inline, kept verbatim
   as the oracle: rule-1 placement, [min k (n - 1)] sampled from the
   caller's stream, the m-router dropped, the first member the
   source. [None] where the inline code hit [List.hd []]. *)
let inline_chain ~rng ~group_size ~packets spec =
  let g = spec.Topology.Spec.graph in
  let n = Netgraph.Graph.node_count g in
  let apsp = Netgraph.Apsp.compute g in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let members =
    Prng.sample rng (min group_size (n - 1)) n
    |> List.filter (fun x -> x <> center)
  in
  if members = [] then None
  else
    let source = List.hd members in
    let sc =
      Protocols.Runner.make ~data_count:packets ~spec ~center ~source ~members
        ()
    in
    Some (center, source, members, sc.data_start, Protocols.Runner.data_end sc)

let gen_builder_case =
  QCheck.Gen.(
    let* topo =
      oneof
        [
          map
            (fun n -> Sweep.Waxman n)
            (oneof [ int_range 2 5; int_range 2 40 ]);
          map
            (fun n -> Sweep.Random3 n)
            (oneof [ int_range 4 6; int_range 4 40 ]);
          map (fun n -> Sweep.Random5 n) (int_range 6 40);
          return Sweep.Arpanet;
        ]
    in
    let* seed = int_range 1 10_000 in
    (* k = 1 + k_raw mod n: one third of the cases draw a single node,
       which is the m-router often enough on small graphs to exercise
       the Error path *)
    let* k_raw = oneof [ return 0; int_range 0 10_000; int_range 0 10_000 ] in
    let* packets = int_range 1 40 in
    (* the callers' stream shapes: a fresh seeded stream ([run], [tree],
       the benches) or the i-th split off a master (Sweep, Chaos) *)
    let* stream =
      oneof
        [
          map (fun s -> `Create s) (int_range 0 100_000);
          map2 (fun s i -> `Split (s, i)) (int_range 0 1000) (int_range 0 7);
        ]
    in
    return (topo, seed, k_raw, packets, stream))

let print_builder_case (topo, seed, k_raw, packets, stream) =
  Printf.sprintf "%s seed=%d k_raw=%d packets=%d %s"
    (Sweep.topo_to_string topo) seed k_raw packets
    (match stream with
    | `Create s -> Printf.sprintf "create %d" s
    | `Split (s, i) -> Printf.sprintf "split %d #%d" s i)

let prop_builder_matches_inline_chain =
  QCheck.Test.make ~count:150
    ~name:"Setup.draw = the inline placement/sample/make chain"
    (QCheck.make ~print:print_builder_case gen_builder_case)
    (fun (topo, seed, k_raw, packets, stream) ->
      let spec = Sweep.generate_topo topo seed in
      let n = Netgraph.Graph.node_count spec.Topology.Spec.graph in
      let group_size = 1 + (k_raw mod n) in
      let rng =
        match stream with
        | `Create s -> Prng.create s
        | `Split (s, i) ->
          let master = Prng.create s in
          for _ = 1 to i do
            ignore (Prng.split master)
          done;
          Prng.split master
      in
      let oracle_rng = Prng.copy rng in
      let expected =
        inline_chain ~rng:oracle_rng ~group_size ~packets spec
      in
      let got = Scmp.Setup.draw ~rng ~group_size ~packets spec in
      (* the builder draws exactly what the chain drew from the stream *)
      Prng.int rng 1_000_000 = Prng.int oracle_rng 1_000_000
      &&
      match (expected, got) with
      | None, Error _ -> true
      | Some (center, source, members, data_start, data_end), Ok s ->
        let sc = s.scenario in
        sc.center = center && sc.source = source && sc.members = members
        && sc.data_start = data_start
        && Protocols.Runner.data_end sc = data_end
        && sc.data_count = packets
      | None, Ok _ | Some _, Error _ -> false)

let test_builder_errors () =
  let spec = Sweep.generate_topo Sweep.Arpanet 1 in
  List.iter
    (fun group_size ->
      match Scmp.Setup.draw ~rng:(Prng.create 1) ~group_size spec with
      | Ok _ -> Alcotest.fail "a group with no members must be an Error"
      | Error msg -> checkb "error names the topology" true (msg <> ""))
    [ 0; -3 ]

(* [Sweep.perturb] against the record updates [scmp_sim run] used to
   apply after [Runner.make]. *)
let test_perturb_matches_record_updates () =
  let spec = Sweep.generate_topo (Sweep.Waxman 40) 7 in
  let base =
    match
      Scmp.Setup.draw ~rng:(Prng.create 30) ~group_size:10 ~packets:20 spec
    with
    | Ok s -> s.scenario
    | Error msg -> Alcotest.fail msg
  in
  (* 0-19 is a link of this topology: [perturb] rejects a line that
     names none. *)
  let line = "0-19@5.0:restore@9.0" in
  let faults =
    match Eventsim.Faults.parse_link_failure line with
    | Ok f -> f
    | Error msg -> Alcotest.fail msg
  in
  let t0 = base.data_start in
  let t1 = t0 +. (base.data_interval *. float_of_int 20) in
  let expected =
    {
      base with
      Protocols.Runner.loss =
        Some { Eventsim.Netsim.rate = 0.05; seed = 42; only = Some `Control };
      faults =
        faults
        @ Eventsim.Faults.random_link_failures ~seed:5 ~count:3 ~t0 ~t1
            spec.Topology.Spec.graph;
      churn =
        Some
          {
            Protocols.Runner.mean_interarrival = 2.0;
            mean_holding = 5.0;
            horizon = t1;
            churn_seed = 7 + 31;
          };
    }
  in
  let p =
    {
      Sweep.no_perturbation with
      loss = Some { Eventsim.Netsim.rate = 0.05; seed = 42; only = Some `Control };
      link_failures = [ line ];
      random_link_failures =
        Some { Sweep.rf_seed = 5; rf_count = 3; rf_restore_after = None };
      churn = Some { Sweep.cs_interarrival = 2.0; cs_holding = 5.0; cs_seed = None };
    }
  in
  checkb "perturb = record updates" true
    (Sweep.perturb p ~seed:7 base = Ok expected);
  checkb "no perturbation leaves the scenario alone" true
    (Sweep.perturb Sweep.no_perturbation ~seed:7 base = Ok base)

(* A churn whose expected arrival count exceeds the bound is rejected by
   [perturb] itself, before any simulation: these rates on [scmp_sim
   run --topo arpanet -p scmp --packets 5]'s scenario ran for seconds
   (1e5, 1e6) or never finished (1e15, 1e300). *)
let test_perturb_bounds_churn () =
  let spec = Sweep.generate_topo Sweep.Arpanet 1 in
  let base =
    match
      Scmp.Setup.draw ~rng:(Prng.create (1 + 23)) ~group_size:16 ~packets:5
        spec
    with
    | Ok s -> s.scenario
    | Error msg -> Alcotest.fail msg
  in
  let churn rate =
    {
      Sweep.no_perturbation with
      churn =
        Some
          { Sweep.cs_interarrival = 1.0 /. rate; cs_holding = 5.0; cs_seed = None };
    }
  in
  List.iter
    (fun rate ->
      match Sweep.perturb (churn rate) ~seed:1 base with
      | Ok _ -> Alcotest.failf "churn rate %g must be rejected" rate
      | Error msg ->
        checkb
          (Printf.sprintf "rate %g: the error names churn.interarrival" rate)
          true
          (String.starts_with ~prefix:"field \"churn.interarrival\": " msg))
    [ 1e5; 1e6; 1e15; 1e300 ];
  checkb "a modest churn is accepted" true
    (Result.is_ok (Sweep.perturb (churn 0.5) ~seed:1 base))

(* ---- per-topology memos ---- *)

let gen_topo_seed =
  QCheck.Gen.(
    pair
      (oneof
         [
           map (fun n -> Sweep.Waxman n) (int_range 2 40);
           map (fun n -> Sweep.Random3 n) (int_range 4 40);
           map (fun n -> Sweep.Random5 n) (int_range 6 40);
           return Sweep.Arpanet;
         ])
      (int_range 1 10_000))

let arb_topo_seed =
  QCheck.make
    ~print:(fun (t, s) -> Printf.sprintf "%s seed=%d" (Sweep.topo_to_string t) s)
    gen_topo_seed

(* The unmemoized oracle: the generator called directly. *)
let generate_fresh topo seed =
  match topo with
  | Sweep.Waxman n -> Topology.Waxman.generate ~seed ~n ()
  | Sweep.Random3 n -> Topology.Flat_random.generate ~seed ~n ~avg_degree:3.0
  | Sweep.Random5 n -> Topology.Flat_random.generate ~seed ~n ~avg_degree:5.0
  | Sweep.Arpanet -> Topology.Arpanet.generate ~seed

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_links g h =
  List.length (Netgraph.Graph.links g) = List.length (Netgraph.Graph.links h)
  && List.for_all2
       (fun (a : Netgraph.Graph.link) (b : Netgraph.Graph.link) ->
         a.u = b.u && a.v = b.v && bits_equal a.delay b.delay
         && bits_equal a.cost b.cost)
       (Netgraph.Graph.links g) (Netgraph.Graph.links h)

let same_spec (a : Topology.Spec.t) (b : Topology.Spec.t) =
  a.name = b.name && a.coords = b.coords && same_links a.graph b.graph

let prop_generate_topo_memo =
  QCheck.Test.make ~count:200 ~name:"generate_topo: shared while held, equal after"
    arb_topo_seed (fun (topo, seed) ->
      let held = Sweep.generate_topo topo seed in
      let again = Sweep.generate_topo topo seed in
      if held != again then QCheck.Test.fail_report "a held spec was rebuilt";
      if not (same_spec held (generate_fresh topo seed)) then
        QCheck.Test.fail_report "memoized spec differs from the generator's";
      (* drop every reference, collect, and ask again *)
      ignore (Sys.opaque_identity held);
      Gc.full_major ();
      same_spec (Sweep.generate_topo topo seed) (generate_fresh topo seed))

let prop_sim_graph_memo =
  QCheck.Test.make ~count:100 ~name:"Spec.sim_graph: one graph per spec"
    arb_topo_seed (fun (topo, seed) ->
      let spec = generate_fresh topo seed in
      let g = Topology.Spec.sim_graph spec in
      (* the oracle: the [map_links] scaling of a spec that never
         built one *)
      let oracle =
        Topology.Spec.sim_graph
          (Topology.Spec.make ~name:spec.name ~graph:spec.graph
             ~coords:spec.coords)
      in
      g == Topology.Spec.sim_graph spec && g != oracle && same_links g oracle)

(* Cells that share a (topo, seed) — two drivers, two group sizes, each
   run twice on a worker that holds the spec — report byte-for-byte
   what each cell reports alone on a fresh domain, whose memos start
   empty. *)
let prop_shared_cells_match_fresh =
  QCheck.Test.make ~count:12 ~name:"run_cell: shared topology = fresh topology"
    arb_topo_seed (fun (topo, seed) ->
      let sweep =
        Sweep.make ~packets:4 ~drivers:[ "scmp"; "pim-sm" ] ~topos:[ topo ]
          ~group_sizes:[ 3; 7 ] ~seeds:[ seed ] ()
      in
      let cells = Sweep.cells sweep in
      let run cell =
        match
          Sweep.run_cell sweep
            (Protocols.Driver.find_exn cell.Sweep.driver)
            cell
            (Prng.create (seed + cell.index))
        with
        | Ok r -> Obs.Report.to_string ~wallclock:false r.report
        | Error msg -> msg (* a draw of the m-router only *)
      in
      let shared =
        Domain.join
          (Domain.spawn (fun () ->
               let held = Sweep.generate_topo topo seed in
               let reports = List.map run (cells @ cells) in
               ignore (Sys.opaque_identity held);
               reports))
      in
      let fresh =
        List.map (fun c -> Domain.join (Domain.spawn (fun () -> run c))) cells
      in
      shared = fresh @ fresh)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "ordered results, oversubscribed" `Quick
            test_pool_ordered_oversubscribed;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
        ] );
      ( "prng",
        [
          Alcotest.test_case "split stream independence" `Quick
            test_prng_split_independence;
        ] );
      ( "merge",
        [ Alcotest.test_case "metric merge algebra" `Quick test_metrics_merge ] );
      ( "sweep",
        [
          Alcotest.test_case "jobs=1 equals jobs=4 byte-for-byte" `Quick
            test_sweep_jobs_invariance;
          Alcotest.test_case "grid order and errors" `Quick
            test_sweep_grid_and_errors;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "plan is pure and ordered" `Quick
            test_chaos_plan_pure;
          Alcotest.test_case "jobs=1 equals jobs=4 byte-for-byte" `Quick
            test_chaos_jobs_invariance;
          Alcotest.test_case "spec errors" `Quick test_chaos_errors;
        ] );
      ( "setup",
        [
          QCheck_alcotest.to_alcotest prop_builder_matches_inline_chain;
          Alcotest.test_case "empty groups are errors" `Quick
            test_builder_errors;
          Alcotest.test_case "churn arrivals are bounded" `Quick
            test_perturb_bounds_churn;
          Alcotest.test_case "perturb = record updates" `Quick
            test_perturb_matches_record_updates;
        ] );
      ( "memo",
        [
          QCheck_alcotest.to_alcotest prop_generate_topo_memo;
          QCheck_alcotest.to_alcotest prop_sim_graph_memo;
          QCheck_alcotest.to_alcotest prop_shared_cells_match_fresh;
        ] );
    ]
