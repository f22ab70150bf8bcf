(* The scenario layer: manifest strictness and round-trip, the A/B
   comparison engine and its scmp-ab/1 serialization, and a
   perturbation-carrying manifest driven through the sweep engine with
   jobs determinism. *)

module Json = Obs.Json
module Manifest = Scenario.Manifest
module Ab = Scenario.Ab

let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let full_manifest =
  {|{
  "schema": "scmp-scenario/1",
  "name": "kitchen-sink",
  "drivers": ["scmp", "hpim-dm"],
  "topologies": ["arpanet", "waxman:40"],
  "group_sizes": [8, 16],
  "seeds": [1, 2],
  "packets": 12,
  "master_seed": 7,
  "loss": {"rate": 0.05, "seed": 42, "class": "control"},
  "link_failures": ["23-24@15.0:restore@22.0"],
  "node_failures": ["7@10.0"],
  "partitions": ["3,5,9@5.0:heal@6.0"],
  "random_link_failures": {"seed": 9, "count": 2, "restore_after": 4.0},
  "churn": {"interarrival": 3.0, "holding": 8.0, "seed": 5},
  "check": true
}|}

(* ---------------- manifest parsing ---------------- *)

let test_manifest_roundtrip () =
  let m =
    match Manifest.of_string full_manifest with
    | Ok m -> m
    | Error e -> Alcotest.failf "parse: %s" e
  in
  checks "name" "kitchen-sink" m.Manifest.name;
  checki "drivers" 2 (List.length m.drivers);
  checki "packets" 12 m.packets;
  checkb "check flag" true m.check;
  (* parse -> print -> parse is the identity on the typed form *)
  let printed = Manifest.to_string m in
  (match Manifest.of_string printed with
  | Ok m' -> checkb "round-trip" true (m = m')
  | Error e -> Alcotest.failf "re-parse: %s" e);
  (* and printing is canonical: print (parse (print m)) = print m *)
  (match Manifest.of_string printed with
  | Ok m' -> checks "canonical print" printed (Manifest.to_string m')
  | Error e -> Alcotest.failf "re-parse: %s" e)

let test_manifest_defaults () =
  let m =
    match
      Manifest.of_string
        {|{"schema": "scmp-scenario/1", "name": "tiny",
           "drivers": ["scmp"], "topologies": ["arpanet"]}|}
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "parse: %s" e
  in
  Alcotest.check Alcotest.(list int) "group sizes" [ 16 ] m.Manifest.group_sizes;
  Alcotest.check Alcotest.(list int) "seeds" [ 1 ] m.seeds;
  checki "packets" 30 m.packets;
  checki "master seed" 1 m.master_seed;
  checkb "no check" false m.check;
  checkb "no perturbations" true
    (m.perturbation = Exec.Sweep.no_perturbation)

let tiny_manifest extra =
  Printf.sprintf
    {|{"schema": "scmp-scenario/1", "name": "x",
       "drivers": ["scmp"], "topologies": ["arpanet"]%s}|}
    extra

let test_manifest_strictness () =
  let err s =
    match Manifest.of_string s with
    | Ok _ -> Alcotest.failf "expected an error for %s" s
    | Error e -> e
  in
  let base = tiny_manifest in
  checkb "unknown key named" true
    (contains ~needle:"topologeis" (err (base {|, "topologeis": []|})));
  checkb "unknown driver surfaces registry error" true
    (contains ~needle:"igmpv9"
       (err
          {|{"schema": "scmp-scenario/1", "name": "x",
             "drivers": ["igmpv9"], "topologies": ["arpanet"]}|}));
  checkb "bad fault line rejected at load" true
    (contains ~needle:"nonsense"
       (err (base {|, "link_failures": ["nonsense"]|})));
  checkb "bad schema" true
    (contains ~needle:"scmp-scenario/1"
       (err {|{"schema": "scmp-scenario/2", "name": "x",
              "drivers": ["scmp"], "topologies": ["arpanet"]}|}));
  checkb "missing required field" true
    (contains ~needle:"drivers"
       (err {|{"schema": "scmp-scenario/1", "name": "x",
              "topologies": ["arpanet"]}|}));
  checkb "zero packets rejected" true
    (contains ~needle:"packets" (err (base {|, "packets": 0|})));
  checkb "bad loss rate rejected" true
    (contains ~needle:"rate"
       (err (base {|, "loss": {"rate": 1.5, "seed": 1}|})));
  checkb "malformed json is an error" true
    (contains ~needle:"JSON" (err "{"))

(* [scmp_sim sweep]'s grid flags lower through [Manifest.grid],
   [validate] and [to_sweep]; that path must give the same cells and
   perturbation fields as the direct [Sweep.make] call the flags used
   to build. *)
let test_flag_grid_matches_sweep_make () =
  let module Sweep = Exec.Sweep in
  List.iter
    (fun (drivers, topos, group_sizes, seeds, packets, master_seed) ->
      let m =
        match
          Manifest.validate
            (Manifest.grid ~name:"sweep" ~drivers ~topos ~group_sizes ~seeds
               ~packets ~master_seed ~check:false)
        with
        | Ok m -> m
        | Error e -> Alcotest.failf "validate: %s" e
      in
      let lowered = Manifest.to_sweep m in
      let direct =
        Sweep.make ~packets ~master_seed ~drivers ~topos ~group_sizes ~seeds ()
      in
      checkb "same cells" true (Sweep.cells lowered = Sweep.cells direct);
      checkb "same grid and perturbation fields" true (lowered = direct);
      (* a perturbation rides through the lowering as it is *)
      let p =
        match Manifest.of_string full_manifest with
        | Ok full -> full.perturbation
        | Error e -> Alcotest.failf "parse: %s" e
      in
      checkb "perturbation carried" true
        (Manifest.to_sweep { m with perturbation = p }
        = Sweep.make ~packets ~master_seed ~perturbation:p ~drivers ~topos
            ~group_sizes ~seeds ()))
    [
      ([ "scmp" ], [ Sweep.Random3 50 ], [ 16 ], [ 1; 2 ], 30, 1);
      ( [ "scmp"; "cbt"; "dvmrp"; "mospf"; "pim-sm"; "hpim-dm" ],
        [ Sweep.Arpanet; Sweep.Waxman 60 ],
        [ 8; 16 ],
        [ 1; 2 ],
        30,
        1 );
      ( [ "cbt"; "scmp" ],
        [ Sweep.Random5 20; Sweep.Arpanet ],
        [ 4 ],
        [ 9 ],
        7,
        3 );
    ];
  (* the checks the flags' own require block made *)
  let rejects what m =
    match Manifest.validate m with
    | Ok _ -> Alcotest.failf "%s must be rejected" what
    | Error _ -> ()
  in
  let grid = Manifest.grid ~name:"sweep" ~check:false in
  let ok =
    grid ~drivers:[ "scmp" ] ~topos:[ Exec.Sweep.Arpanet ] ~group_sizes:[ 8 ]
      ~seeds:[ 1 ] ~packets:10 ~master_seed:1
  in
  checkb "a valid grid passes" true (Manifest.validate ok = Ok ok);
  rejects "zero packets" { ok with packets = 0 };
  rejects "no group sizes" { ok with group_sizes = [] };
  rejects "a group size below 1" { ok with group_sizes = [ 8; 0 ] };
  rejects "no seeds" { ok with seeds = [] };
  rejects "no drivers" { ok with drivers = [] };
  rejects "no topologies" { ok with topos = [] }

(* ---------------- ab comparison ---------------- *)

let report metrics =
  Json.Obj
    [
      ("schema", Json.String Obs.Report.schema);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
    ]

let compare_fixtures ?rules old_m new_m =
  match
    Ab.compare_reports ?rules ~old_json:(report old_m) ~new_json:(report new_m)
      ()
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "compare: %s" e

let test_ab_identical_passes () =
  let m = [ ("a/x", 10.0); ("a/y", 0.5) ] in
  let o = compare_fixtures m m in
  checkb "pass" true (Ab.passed o);
  checki "compared" 2 o.Ab.compared;
  checki "within" 2 o.within;
  checki "regressed" 0 o.regressed

let test_ab_regression_fails () =
  (* a 25% swing breaks the default 10% band in either direction *)
  let o = compare_fixtures [ ("a/x", 100.0) ] [ ("a/x", 125.0) ] in
  checkb "fail" false (Ab.passed o);
  checki "regressed" 1 o.Ab.regressed;
  (* direction-aware rules call an improvement an improvement *)
  let rules = [ { Ab.pattern = "a/*"; direction = Ab.Higher_worse; tol = 0.1 } ] in
  let o = compare_fixtures ~rules [ ("a/x", 100.0) ] [ ("a/x", 75.0) ] in
  checkb "lower is better here" true (Ab.passed o);
  checki "improved" 1 o.Ab.improved

let test_ab_noise_band_passes () =
  (* 5% drift sits inside the default 10% band *)
  let o = compare_fixtures [ ("a/x", 100.0) ] [ ("a/x", 105.0) ] in
  checkb "pass" true (Ab.passed o);
  checki "within" 1 o.Ab.within

let test_ab_missing_metric_fails () =
  let o = compare_fixtures [ ("a/x", 1.0); ("a/y", 2.0) ] [ ("a/x", 1.0) ] in
  checkb "missing metric fails the gate" false (Ab.passed o);
  checki "missing" 1 o.Ab.missing;
  (* a new metric is reported but never fails *)
  let o = compare_fixtures [ ("a/x", 1.0) ] [ ("a/x", 1.0); ("a/z", 3.0) ] in
  checkb "added metric passes" true (Ab.passed o);
  checki "added" 1 o.Ab.added

let test_ab_bench_minor_words () =
  (* the bench profile bands deterministic allocation counts tightly,
     and only in the worse direction *)
  let key = "micro/dcdm-churn-1000/minor_words" in
  let rules = Result.get_ok (Ab.profile_of_string "bench") in
  let bench old_v new_v =
    compare_fixtures ~rules [ (key, old_v) ] [ (key, new_v) ]
  in
  let o = bench 100000.0 103000.0 in
  checkb "3% more words fails" false (Ab.passed o);
  checki "regressed" 1 o.Ab.regressed;
  checkb "1% more words passes" true (Ab.passed (bench 100000.0 101000.0));
  let o = bench 100000.0 40000.0 in
  checkb "fewer words passes" true (Ab.passed o);
  checki "improved" 1 o.Ab.improved

let test_ab_schema_validation () =
  (match
     Ab.compare_reports ~old_json:(Json.Obj []) ~new_json:(report []) ()
   with
  | Ok _ -> Alcotest.fail "schemaless report accepted"
  | Error e -> checkb "names the old side" true (contains ~needle:"old" e));
  match Ab.metric_value (report [ ("a/x", 1.0) ]) "a/zzz" with
  | Ok _ -> Alcotest.fail "missing key resolved"
  | Error e -> checkb "error names the key" true (contains ~needle:"a/zzz" e)

let test_ab_glob_and_serialization () =
  checkb "exact" true (Ab.glob_match "a/x" "a/x");
  checkb "star run" true (Ab.glob_match "micro/*/ns_per_run" "micro/dcdm-build-30/ns_per_run");
  checkb "star empty" true (Ab.glob_match "a*x" "ax");
  checkb "no match" false (Ab.glob_match "a/*" "b/c");
  checkb "suffix star" true (Ab.glob_match "e2e/*_per_s" "e2e/scmp/events_per_s");
  let o = compare_fixtures [ ("a/x", 100.0) ] [ ("a/x", 125.0) ] in
  let doc = Json.to_string (Ab.to_json ~old_name:"old" ~new_name:"new" o) in
  checkb "schema tag" true (contains ~needle:"scmp-ab/1" doc);
  checkb "verdict" true (contains ~needle:"\"verdict\":\"fail\"" doc);
  checkb "delta status" true (contains ~needle:"\"status\":\"regressed\"" doc);
  match Json.of_string doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "scmp-ab/1 does not re-parse: %s" e

(* ---------------- manifest -> sweep execution ---------------- *)

let test_manifest_sweep_jobs_deterministic () =
  (* a perturbation-carrying manifest must lower to a sweep whose
     merged report is byte-identical for any jobs count *)
  let m =
    match
      Manifest.of_string
        {|{"schema": "scmp-scenario/1", "name": "perturbed",
           "drivers": ["scmp", "hpim-dm"], "topologies": ["random3:30"],
           "group_sizes": [8], "seeds": [1], "packets": 6,
           "partitions": ["0,1,2@3.5:heal@5.0"],
           "random_link_failures": {"seed": 3, "count": 1},
           "churn": {"interarrival": 2.0, "holding": 5.0}}|}
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let spec = Manifest.to_sweep m in
  let run jobs =
    match Exec.Sweep.run ~jobs spec with
    | Ok o -> Obs.Report.to_string ~wallclock:false o.Exec.Sweep.report
    | Error e -> Alcotest.failf "sweep: %s" e
  in
  let r1 = run 1 in
  checks "jobs 1 = jobs 2" r1 (run 2);
  checkb "per-cell rows for both drivers" true
    (contains ~needle:"cell/scmp/random3:30/k8/s1/deliveries" r1
    && contains ~needle:"cell/hpim-dm/random3:30/k8/s1/deliveries" r1);
  checkb "perturbations recorded in meta" true
    (contains ~needle:"scripted_faults" r1
    && contains ~needle:"random_link_failures" r1
    && contains ~needle:"churn" r1)

(* ---------------- malformed perturbations ---------------- *)

(* Beside this test's own build directory, whatever the working
   directory it runs from. *)
let beside_test path =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.parent_dir_name :: path)

let sim_exe = beside_test [ "bin"; "scmp_sim.exe" ]

(* [scmp_sim run]'s exit code and stderr on ARPANET, seed 1. *)
let run_cli args =
  let err = Filename.temp_file "scmp_run" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s run --topo arpanet -p scmp --packets 5 %s >/dev/null 2>%s"
         (Filename.quote sim_exe) args (Filename.quote err))
  in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, stderr)

let arpanet_base =
  lazy
    (match
       Scmp.Setup.draw ~rng:(Scmp_util.Prng.create 24) ~group_size:16
         ~packets:5
         (Exec.Sweep.generate_topo Exec.Sweep.Arpanet 1)
     with
    | Ok s -> s.scenario
    | Error e -> Alcotest.failf "draw: %s" e)

(* Where a malformed program is rejected when it does not come from
   the CLI: at load, or (for what needs the graph) by [Sweep.perturb]
   on an ARPANET cell; a record for what JSON cannot write. *)
type counterpart = Manifest of string | Record of Exec.Sweep.perturbation

let counterpart_error c =
  let perturb p =
    match Exec.Sweep.perturb p ~seed:1 (Lazy.force arpanet_base) with
    | Error e -> Some e
    | Ok _ -> None
  in
  match c with
  | Record p -> perturb p
  | Manifest extra -> (
    match Manifest.of_string (tiny_manifest (", " ^ extra)) with
    | Error e -> Some e
    | Ok m -> perturb m.perturbation)

(* Each row: [run]'s flags, their manifest counterpart, and the field
   and value the error must name. Every row raised (exit 125) or was
   silently accepted before the one validator. *)
let malformed =
  let no_p = Exec.Sweep.no_perturbation in
  let manifest extra = Some (Manifest extra) in
  [
    (Some "--loss=1.5", manifest {|"loss": {"rate": 1.5, "seed": 42}|},
     "loss.rate", "1.5");
    (Some "--loss=-0.1", manifest {|"loss": {"rate": -0.1, "seed": 42}|},
     "loss.rate", "-0.1");
    (Some "--loss=nan",
     Some
       (Record
          { no_p with loss = Some { Exec.Sweep.rate = Float.nan; seed = 42; only = None } }),
     "loss.rate", "nan");
    (Some "--fault-seed=1 --fault-count=-1",
     manifest {|"random_link_failures": {"seed": 1, "count": -1}|},
     "random_link_failures.count", "-1");
    (Some "--churn-rate=5 --churn-hold=0",
     manifest {|"churn": {"interarrival": 0.2, "holding": 0}|},
     "churn.holding", "0");
    (Some "--fail-link=0-99@5", manifest {|"link_failures": ["0-99@5"]|},
     "link_failures", {|"0-99@5"|});
    (Some "--fail-link=0-40@5", manifest {|"link_failures": ["0-40@5"]|},
     "link_failures", {|"0-40@5"|});
    (Some "--fail-node=999@5", manifest {|"node_failures": ["999@5"]|},
     "node_failures", {|"999@5"|});
    (Some "--partition=0,999@5", manifest {|"partitions": ["0,999@5"]|},
     "partitions", {|"0,999@5"|});
    (Some "--fail-link=0-1@-5", manifest {|"link_failures": ["0-1@-5"]|},
     "link_failures", {|"0-1@-5"|});
    (Some "--fail-link=1-2@nan", manifest {|"link_failures": ["1-2@nan"]|},
     "link_failures", {|"1-2@nan"|});
    (Some "--trace-limit=-3 --trace=never-written.tr", None, "--trace-limit", "-3");
    (None,
     manifest {|"random_link_failures": {"seed": 1, "count": 1, "restore_after": -2}|},
     "random_link_failures.restore_after", "-2");
  ]

let test_malformed_perturbations () =
  checkb "scmp_sim built" true (Sys.file_exists sim_exe);
  List.iter
    (fun (args, counterpart, field, value) ->
      Option.iter
        (fun args ->
          let code, stderr = run_cli args in
          Alcotest.check Alcotest.int (args ^ ": usage error") 2 code;
          checkb (args ^ ": stderr names " ^ field) true
            (contains ~needle:field stderr))
        args;
      Option.iter
        (fun c ->
          match counterpart_error c with
          | None -> Alcotest.failf "%s: the counterpart is accepted" field
          | Some e ->
            checkb
              (Printf.sprintf "%S names %s and %s" e field value)
              true
              (contains ~needle:(Printf.sprintf "%S" field) e
              && contains ~needle:value e))
        counterpart)
    malformed

(* ---------------- parser fuzzing ---------------- *)

(* Mutation fuzzing: byte flips, insertions, deletions and truncations
   of valid inputs. A parser answers Ok or Error, never raises; and a
   program that parses either lowers onto an ARPANET cell and runs its
   faults to the end, or is an Error — never an exception. *)

type mutation =
  | Flip of int * int  (** XOR the byte at a position with a bit. *)
  | Insert of int * char
  | Delete of int
  | Truncate of int

let apply_mutation s m =
  let n = String.length s in
  match m with
  | Flip (i, bit) when n > 0 ->
    let i = i mod n in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl bit)) else c)
      s
  | Insert (i, c) ->
    let i = i mod (n + 1) in
    String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | Delete i when n > 0 ->
    let i = i mod n in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | Truncate i -> String.sub s 0 (i mod (n + 1))
  | Flip _ | Delete _ -> s

let gen_mutation =
  let open QCheck.Gen in
  (* Characters the grammars care about, so insertions often land
     in a value rather than only breaking the syntax. *)
  let char =
    oneof [ oneofl (List.of_seq (String.to_seq "0123456789-+.,:@eE\"[]{} nainfrstohl")); char ]
  in
  oneof
    [
      map2 (fun i b -> Flip (i, b)) nat (int_bound 7);
      map2 (fun i c -> Insert (i, c)) nat char;
      map (fun i -> Delete i) nat;
      map (fun i -> Truncate i) nat;
    ]

let arb_mutant seeds =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      map2 (List.fold_left apply_mutation)
        (fun st -> oneofl (Lazy.force seeds) st)
        (list_size (frequency [ (3, return 1); (1, int_range 2 4) ]) gen_mutation))

(* Install what [perturb] returns on a network of the cell's graph and
   run the engine through every fault; churn is started (which checks
   its means) on an engine of its own that never runs. *)
let lowers_and_runs p =
  match Exec.Sweep.perturb p ~seed:1 (Lazy.force arpanet_base) with
  | Error _ -> true
  | Ok sc ->
    let e = Eventsim.Engine.create () in
    let net =
      Eventsim.Netsim.create e (Topology.Spec.sim_graph sc.spec)
        ~classify:(fun () -> `Data)
    in
    Option.iter
      (fun (rate, seed) ->
        Eventsim.Netsim.set_loss ?only:sc.loss_class net ~rate ~seed)
      sc.loss;
    ignore (Eventsim.Faults.install net sc.faults);
    Eventsim.Engine.run e;
    Option.iter
      (fun (c : Protocols.Runner.churn) ->
        ignore
          (Protocols.Churn.start (Eventsim.Engine.create ())
             ~rng:(Scmp_util.Prng.create c.churn_seed) ~candidates:[ 0 ]
             ~join:ignore ~leave:ignore ~mean_interarrival:c.mean_interarrival
             ~mean_holding:c.mean_holding ~horizon:c.horizon))
      sc.churn;
    true

let checked_in_manifests =
  lazy
    (full_manifest
    :: List.map
       (fun f ->
         In_channel.with_open_text
           (beside_test [ "examples"; "scenarios"; f ])
           In_channel.input_all)
       [ "clean_compare.json"; "fault_compare.json" ])

let prop_manifest_fuzz =
  QCheck.Test.make ~count:3000 ~name:"Manifest.of_string: mutants are Ok or Error"
    (arb_mutant checked_in_manifests) (fun s ->
      match Manifest.of_string s with
      | Error _ -> true
      | Ok m -> lowers_and_runs m.perturbation)

let fault_lines =
  [
    "23-24@15.0:restore@22.0"; "23-24@15.0"; "7@10.0"; "5@1.25:restore@9.5";
    "3,5,9@5.0:heal@6.0"; "0,1,2@3.5"; "1-2@0"; "47@1e1:restore@2e1";
  ]

let prop_fault_line_fuzz =
  QCheck.Test.make ~count:3000
    ~name:"Faults.parse_*: mutants are Ok or Error"
    (arb_mutant (Lazy.from_val fault_lines)) (fun line ->
      let no_p = Exec.Sweep.no_perturbation in
      List.for_all
        (fun (parse, p) ->
          match parse line with
          | Error _ -> true
          | Ok _ -> lowers_and_runs p)
        [
          (Eventsim.Faults.parse_link_failure, { no_p with link_failures = [ line ] });
          (Eventsim.Faults.parse_node_failure, { no_p with node_failures = [ line ] });
          (Eventsim.Faults.parse_partition, { no_p with partitions = [ line ] });
        ])

let () =
  Alcotest.run "scenario"
    [
      ( "manifest",
        [
          Alcotest.test_case "round-trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "defaults" `Quick test_manifest_defaults;
          Alcotest.test_case "strictness" `Quick test_manifest_strictness;
          Alcotest.test_case "flag grid = Sweep.make" `Quick
            test_flag_grid_matches_sweep_make;
          Alcotest.test_case "malformed perturbations are errors" `Quick
            test_malformed_perturbations;
          QCheck_alcotest.to_alcotest prop_manifest_fuzz;
          QCheck_alcotest.to_alcotest prop_fault_line_fuzz;
        ] );
      ( "ab",
        [
          Alcotest.test_case "identical passes" `Quick test_ab_identical_passes;
          Alcotest.test_case "regression fails" `Quick test_ab_regression_fails;
          Alcotest.test_case "noise band passes" `Quick test_ab_noise_band_passes;
          Alcotest.test_case "missing metric fails" `Quick
            test_ab_missing_metric_fails;
          Alcotest.test_case "schema validation" `Quick test_ab_schema_validation;
          Alcotest.test_case "glob + scmp-ab/1" `Quick
            test_ab_glob_and_serialization;
          Alcotest.test_case "bench minor words band" `Quick
            test_ab_bench_minor_words;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "manifest jobs determinism" `Slow
            test_manifest_sweep_jobs_deterministic;
        ] );
    ]
