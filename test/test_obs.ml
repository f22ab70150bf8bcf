(* Observability layer: the JSON emitter, the metric registry, sim-time
   series, the driver registry, report determinism across same-scenario
   runs, and the bounded trace ring buffer. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Series = Obs.Series
module Report = Obs.Report
module Driver = Protocols.Driver
module Runner = Protocols.Runner
module Prng = Scmp_util.Prng

let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---------------- Json ---------------- *)

let test_json_rendering () =
  checks "null" "null" (Json.to_string Json.Null);
  checks "bool" "true" (Json.to_string (Json.Bool true));
  checks "int" "42" (Json.to_string (Json.Int 42));
  checks "integer float" "3.0" (Json.to_string (Json.Float 3.0));
  checks "fraction" "0.25" (Json.to_string (Json.Float 0.25));
  checks "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  checks "inf is null" "null" (Json.to_string (Json.Float Float.infinity));
  checks "escaping" "\"a\\\"b\\nc\"" (Json.to_string (Json.String "a\"b\nc"));
  checks "list" "[1,2]" (Json.to_string (Json.List [ Json.Int 1; Json.Int 2 ]));
  checks "obj" "{\"k\":1}" (Json.to_string (Json.Obj [ ("k", Json.Int 1) ]))

let test_json_parser () =
  let rt ?pretty v =
    match Json.of_string (Json.to_string ?pretty v) with
    | Ok v' -> checkb "round-trip" true (v = v')
    | Error e -> Alcotest.fail e
  in
  let samples =
    [
      Json.Null;
      Json.Bool false;
      Json.Int (-7);
      Json.Float 0.25;
      Json.String "a\"b\n\tc \\ end";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj [ ("schema", Json.String "scmp-lint/1"); ("n", Json.Float 3.5) ];
    ]
  in
  List.iter rt samples;
  List.iter (rt ~pretty:true) samples;
  (* numeric classification mirrors the printer's split *)
  checkb "bare integer parses as Int" true
    (Json.of_string "42" = Ok (Json.Int 42));
  checkb "dotted number parses as Float" true
    (Json.of_string "3.0" = Ok (Json.Float 3.0));
  checkb "exponent parses as Float" true
    (Json.of_string "1e2" = Ok (Json.Float 100.0));
  checkb "unicode escape" true
    (Json.of_string "\"\\u0041\"" = Ok (Json.String "A"));
  (* malformed input is an error, never a partial parse *)
  let bad s = match Json.of_string s with Error _ -> true | Ok _ -> false in
  checkb "unterminated obj" true (bad "{\"k\": 1");
  checkb "trailing garbage" true (bad "1 x");
  checkb "bare word" true (bad "flase");
  checkb "empty input" true (bad "");
  (* field lookup helper *)
  checkb "mem hit" true
    (Json.mem "k" (Json.Obj [ ("k", Json.Int 1) ]) = Some (Json.Int 1));
  checkb "mem miss" true (Json.mem "z" (Json.Obj []) = None);
  checkb "mem on non-obj" true (Json.mem "k" (Json.Int 3) = None)

let test_json_no_scientific_notation () =
  (* check.sh-style consumers read numbers with naive regexes, and the
     parser classifies by the presence of '.', so the emitter must
     never fall back to exponent notation — however tiny or huge the
     float — and every emitted float must parse back as a Float. *)
  let cases =
    [
      (1e-7, "0.0000001");
      (-1e-9, "-0.000000001");
      (1.5e-5, "0.000015");
      (6.02e23, "602000000000000000000000.0");
      (1e15, "1000000000000000.0");
      (1e300, String.concat "" [ "1"; String.make 300 '0'; ".0" ]);
      (-2.5e-3, "-0.0025");
      (1.23456789e2, "123.456789");
    ]
  in
  List.iter
    (fun (f, expected) ->
      let s = Json.to_string (Json.Float f) in
      checks (Printf.sprintf "%h renders plainly" f) expected s;
      checkb
        (Printf.sprintf "%h has no exponent" f)
        false
        (String.exists (fun c -> c = 'e' || c = 'E') s);
      match Json.of_string s with
      | Ok (Json.Float f') ->
        checkb (Printf.sprintf "%h round-trips" f) true (Float.equal f f')
      | Ok _ -> Alcotest.failf "%s did not parse back as a Float" s
      | Error e -> Alcotest.failf "%s failed to parse: %s" s e)
    cases

(* Mutation fuzzing ({!Fuzz}) of the parser itself, called directly:
   whatever the text, [of_string] answers Ok or Error and never raises. *)
let json_seeds =
  lazy
    [
      Json.to_string ~pretty:true
        (Json.Obj
           [
             ("schema", Json.String "scmp-report/1");
             ("count", Json.Int 42);
             ("ratio", Json.Float 0.25);
             ("neg", Json.Float (-1.5));
             ( "items",
               Json.List
                 [
                   Json.Null;
                   Json.Bool true;
                   Json.Bool false;
                   Json.String "a\"b\\c\n\t\001";
                 ] );
             ("empty", Json.Obj []);
           ]);
      "{\"a\": [1, -2, 3.5e-3, 1E2, 0], \"b\": \"\\u0041\\/\\r\\b\\f\"}";
      "[[], {}, [[1]], \"\", -0.0]";
    ]

let prop_json_fuzz =
  QCheck.Test.make ~count:3000 ~name:"Json.of_string: mutants are Ok or Error"
    (Fuzz.arb_mutant json_seeds) (fun s ->
      match Json.of_string s with Ok _ | Error _ -> true)

(* ---------------- Metrics ---------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a/count" in
  Metrics.add c 1;
  Metrics.add c 4;
  checki "counter" 5 (Metrics.counter_value c);
  (* same name returns the same underlying counter *)
  Metrics.add (Metrics.counter m "a/count") 1;
  checki "idempotent handle" 6 (Metrics.counter_value c);
  let g = Metrics.gauge m "a/gauge" in
  Metrics.set g 2.5;
  let lower = Metrics.create () in
  Metrics.set (Metrics.gauge lower "a/gauge") 1.0;
  Metrics.merge m lower;
  Alcotest.check (Alcotest.float 1e-9) "merge keeps the max" 2.5
    (Metrics.gauge_value g);
  let h = Metrics.histogram m "a/hist" in
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  checki "hist count" 2 (Metrics.histogram_count h);
  (* kind mismatch on a taken name is an error *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"a/count\" already registered with another kind")
    (fun () -> ignore (Metrics.gauge m "a/count"))

let test_metrics_wallclock_excluded () =
  let m = Metrics.create () in
  Metrics.set_counter (Metrics.counter m "sim/events") 7;
  Metrics.set (Metrics.gauge ~wallclock:true m "wall/elapsed_s") 1.23;
  let all = Json.to_string (Metrics.to_json m) in
  let sim_only = Json.to_string (Metrics.to_json ~wallclock:false m) in
  checkb "wallclock present by default" true
    (String.length all > String.length sim_only);
  checks "deterministic view drops it" "{\"sim/events\":7}" sim_only

(* ---------------- Series ---------------- *)

let test_series_monotonic () =
  let s = Series.create ~name:"q" in
  Series.sample s ~t:1.0 2.0;
  Series.sample s ~t:1.0 3.0;
  Series.sample s ~t:4.0 1.0;
  checki "length" 3 (Series.length s);
  Alcotest.check_raises "time going backwards"
    (Invalid_argument "Series.sample: time went backwards") (fun () ->
      Series.sample s ~t:3.9 0.0)

(* ---------------- Driver registry ---------------- *)

let test_driver_registry_roundtrip () =
  Alcotest.check
    Alcotest.(list string)
    "builtin names"
    [ "scmp"; "cbt"; "dvmrp"; "mospf"; "pim-sm"; "hpim-dm" ]
    (Driver.names ());
  List.iter
    (fun name ->
      match Driver.find name with
      | Ok d -> checks ("find " ^ name) name (Driver.name d)
      | Error msg -> Alcotest.failf "find %s: %s" name msg)
    (Driver.names ());
  (* lookup is case-insensitive *)
  checkb "case-insensitive" true
    (match Driver.find "PIM-SM" with Ok d -> Driver.name d = "pim-sm" | _ -> false);
  (* a variant outside the list resolves by name, so a manifest can run
     it, but the list a comparison runs does not grow *)
  let variant = "scmp-full-tree" in
  (match Driver.find variant with
  | Ok d -> checks ("find " ^ variant) variant (Driver.name d)
  | Error msg -> Alcotest.failf "find %s: %s" variant msg);
  checkb "names () does not list it" false (List.mem variant (Driver.names ()));
  checkb "all () does not list it" false
    (List.exists (fun d -> Driver.name d = variant) (Driver.all ()))

let test_driver_unknown_name () =
  (match Driver.find "igmpv9" with
  | Ok _ -> Alcotest.fail "unknown name resolved"
  | Error msg ->
    checkb "error names the unknown" true (contains ~needle:"igmpv9" msg);
    checkb "error lists known drivers" true (contains ~needle:"pim-sm" msg));
  Alcotest.check_raises "find_exn raises"
    (Invalid_argument
       "unknown protocol \"nope\" (known: scmp, cbt, dvmrp, mospf, pim-sm, hpim-dm)")
    (fun () -> ignore (Driver.find_exn "nope"))

(* ---------------- Report determinism ---------------- *)

let report_scenario () =
  let spec = Topology.Flat_random.generate ~seed:6 ~n:40 ~avg_degree:3.0 in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let rng = Prng.create 19 in
  let members = Prng.sample rng 10 40 |> List.filter (fun x -> x <> center) in
  Runner.make ~spec ~center ~source:(List.hd members) ~members ()

let run_report driver sc =
  let r = Report.create ~name:"determinism" () in
  ignore (Runner.run ~report:r driver sc);
  r

let test_report_deterministic_excl_wallclock () =
  let sc = report_scenario () in
  List.iter
    (fun d ->
      let a = run_report d sc in
      let b = run_report d sc in
      checks
        (Driver.name d ^ " byte-identical without wallclock")
        (Report.to_string ~wallclock:false a)
        (Report.to_string ~wallclock:false b))
    (Driver.all ())

let test_report_has_expected_keys () =
  let sc = report_scenario () in
  let r = run_report (Driver.find_exn "scmp") sc in
  let names = Metrics.names (Report.metrics r) in
  List.iter
    (fun key -> checkb key true (List.mem key names))
    [
      "engine/events_executed";
      "engine/heap_high_water";
      "net/data/transmissions";
      "net/control/transmissions";
      "net/data/bytes";
      "net/control/bytes";
      "scmp/tree_packets";
      "scmp/branch_packets";
      "scmp/tree_computes";
      "scmp/tree_compute_wall_s";
      "delivery/deliveries";
      "delivery/delay_s";
      "phase/join/sim_s";
      "phase/data/sim_s";
      "run/total_wall_s";
    ];
  (* both sim-time series got sampled through the data phase *)
  let series_names = List.map Series.name (Report.series r) in
  checkb "delivery series" true (List.mem "delivery/cumulative" series_names);
  checkb "transmission series" true (List.mem "net/transmissions" series_names);
  List.iter
    (fun s -> checkb "sampled" true (Series.length s >= 30))
    (Report.series r);
  (* schema marker survives serialization *)
  checkb "schema tag" true
    (contains ~needle:"scmp-report/1" (Report.to_string r))

(* ---------------- Trace ring buffer ---------------- *)

let test_trace_ring_buffer () =
  let sc0 = report_scenario () in
  let unbounded = { sc0 with Runner.trace_path = Some "/dev/null" } in
  let bounded =
    { unbounded with Runner.trace_limit = Some 50 }
  in
  (* the runner writes /dev/null happily; measure via the report *)
  let count sc =
    let r = Report.create ~name:"trace" () in
    ignore (Runner.run ~report:r (Driver.find_exn "scmp") sc);
    let m = Report.metrics r in
    ( Metrics.counter_value (Metrics.counter m "trace/lines"),
      Metrics.counter_value (Metrics.counter m "trace/dropped") )
  in
  let full_lines, full_dropped = count unbounded in
  let kept, dropped = count bounded in
  checkb "unbounded keeps everything" true (full_lines > 50);
  checki "unbounded drops nothing" 0 full_dropped;
  checki "ring keeps exactly the limit" 50 kept;
  checki "evictions counted" (full_lines - 50) dropped

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "canonical rendering" `Quick test_json_rendering;
          Alcotest.test_case "parser round-trip" `Quick test_json_parser;
          Alcotest.test_case "no scientific notation" `Quick
            test_json_no_scientific_notation;
          QCheck_alcotest.to_alcotest prop_json_fuzz;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "wallclock filter" `Quick
            test_metrics_wallclock_excluded;
        ] );
      ( "series",
        [ Alcotest.test_case "monotonic time" `Quick test_series_monotonic ] );
      ( "driver-registry",
        [
          Alcotest.test_case "round-trip" `Quick test_driver_registry_roundtrip;
          Alcotest.test_case "unknown name" `Quick test_driver_unknown_name;
        ] );
      ( "report",
        [
          Alcotest.test_case "deterministic excl wallclock" `Slow
            test_report_deterministic_excl_wallclock;
          Alcotest.test_case "expected keys" `Quick test_report_has_expected_keys;
        ] );
      ( "trace",
        [ Alcotest.test_case "ring buffer" `Quick test_trace_ring_buffer ] );
    ]
