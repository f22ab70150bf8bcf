(* Tier-1 test of the benchmark: every workload at its tiny size, with
   tracing off and on, emits exactly the metrics BENCHMARK.json names,
   with their units, passes its correctness rule, and reproduces the
   seed-1 digest recorded in expected.json. *)

open Scmp_bench

let json path =
  match Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: %s" path msg

let field key j =
  match Obs.Json.mem key j with Some v -> v | None -> Alcotest.failf "missing %S" key

let catalog key =
  match field key (json "../BENCHMARK.json") with
  | Obs.Json.List ms ->
    List.map
      (fun m ->
        match (field "name" m, field "unit" m) with
        | Obs.Json.String n, Obs.Json.String u -> (n, u)
        | _ -> Alcotest.fail "metric without a string name and unit")
      ms
  | _ -> Alcotest.failf "%s is not a list" key

let tiny_digest w =
  let tiny = field "tiny" (json "expected.json") in
  match field "1" (field (Workload.to_string w) tiny) with
  | Obs.Json.String d -> d
  | _ -> Alcotest.fail "digest is not a string"

let pairs = Alcotest.(list (pair string string))

let check_workload w () =
  let expected = tiny_digest w in
  List.iter
    (fun (trace, key) ->
      let o = Measure.measure ~expected Workload.Tiny w ~seed:1 ~seconds:0.0 ~trace in
      Alcotest.check pairs (key ^ " metrics") (catalog key)
        (List.map (fun (m : Measure.metric) -> (m.name, m.unit_)) o.metrics);
      Alcotest.(check string) "seed-1 digest" expected o.digest;
      Alcotest.(check int) "no failed runs" 0 o.failed;
      List.iter
        (fun (m : Measure.metric) ->
          if Float.is_nan m.value || m.value < 0.0 then
            Alcotest.failf "%s = %f" m.name m.value)
        o.metrics)
    [ (false, "end_to_end"); (true, "per_layer") ]

let () =
  Alcotest.run "benchmark"
    [
      ( "benchmark",
        List.map
          (fun w ->
            Alcotest.test_case (Workload.to_string w ^ " tiny") `Quick (check_workload w))
          Workload.all );
    ]
