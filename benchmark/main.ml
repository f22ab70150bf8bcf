(* Benchmark driver: one workload, measured for a number of seconds.

   dune exec benchmark/main.exe -- --workload paper --seed 1 --seconds 20

   Prints a summary, then as its last line one JSON object with the
   keys correct, attempted, failed and metrics. Exits 1 when any run
   failed its correctness rule or its digest. benchmark/run.py is the
   entry point that builds this first. *)

open Scmp_bench

(* The digest the first five rounds must give, for seeds 1-3; read from
   under the repository root, like the trace is written there. *)
let expected_digest w seed =
  let path = Filename.concat "benchmark" "expected.json" in
  match Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok json -> (
    match
      Option.bind (Obs.Json.mem "full" json) (fun full ->
          Option.bind (Obs.Json.mem (Workload.to_string w) full) (fun by_seed ->
              Obs.Json.mem (string_of_int seed) by_seed))
    with
    | Some (Obs.Json.String d) -> Some d
    | _ -> None)

(* Spans of the last traced round, under the repository root. *)
let write_trace w json =
  let out = Filename.concat "benchmark" "out" in
  let dir = Filename.concat out (Workload.to_string w) in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ out; dir ];
  let path = Filename.concat dir "trace.json" in
  match Obs.Json.write_file path json with
  | Ok () -> Printf.printf "trace: %s\n" path
  | Error msg -> failwith msg

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper | scale | flood | faulty");
      ("--seed", Arg.Set_int seed, "N seed every input is derived from (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics instead");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match Workload.of_string !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let expected = expected_digest w !seed in
  let trace = !trace = 1 in
  let o =
    Measure.measure ?expected Workload.Full w ~seed:!seed ~seconds:!seconds ~trace
  in
  Printf.printf "workload %s seed %d: %d rounds, %d runs, %d failed, digest %s%s\n"
    (Workload.to_string w) !seed o.rounds o.attempted o.failed o.digest
    (match expected with
    | None -> ""
    | Some d -> if d = o.digest then " (matches expected)" else " (EXPECTED " ^ d ^ ")");
  if trace then begin
    print_string o.table;
    Option.iter (write_trace w) o.trace
  end;
  List.iter
    (fun (m : Measure.metric) ->
      Printf.printf "  %-36s %16.6f %s\n" m.name m.value m.unit_)
    o.metrics;
  let metric (m : Measure.metric) =
    ( m.name,
      Obs.Json.Obj
        [ ("value", Obs.Json.Float m.value); ("unit", Obs.Json.String m.unit_) ] )
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (o.failed = 0));
            ("attempted", Obs.Json.Int o.attempted);
            ("failed", Obs.Json.Int o.failed);
            ("metrics", Obs.Json.Obj (List.map metric o.metrics));
          ]));
  if o.failed > 0 then exit 1
