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
    (m.loss = None && m.link_failures = [] && m.random_link_failures = None
   && m.churn = None)

let test_manifest_strictness () =
  let err s =
    match Manifest.of_string s with
    | Ok _ -> Alcotest.failf "expected an error for %s" s
    | Error e -> e
  in
  let base extra =
    Printf.sprintf
      {|{"schema": "scmp-scenario/1", "name": "x",
         "drivers": ["scmp"], "topologies": ["arpanet"]%s}|}
      extra
  in
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
      let lowered =
        match
          Result.bind
            (Manifest.validate
               (Manifest.grid ~name:"sweep" ~drivers ~topos ~group_sizes
                  ~seeds ~packets ~master_seed ~check:false))
            Manifest.to_sweep
        with
        | Ok s -> s
        | Error e -> Alcotest.failf "lowering: %s" e
      in
      let direct =
        Sweep.make ~packets ~master_seed ~drivers ~topos ~group_sizes ~seeds ()
      in
      checkb "same cells" true (Sweep.cells lowered = Sweep.cells direct);
      checkb "same grid and perturbation fields" true (lowered = direct))
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
  let spec =
    match Manifest.to_sweep m with
    | Ok s -> s
    | Error e -> Alcotest.failf "to_sweep: %s" e
  in
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
