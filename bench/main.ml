(* Benchmark harness: Fig 7 and the studies that need a knob or a fixed
   draw a scenario manifest does not have, as plain-text series, plus
   best-of-k micro-benchmarks of the core algorithms and the parallel
   sweep engine's speedup/determinism check. Figs 8/9 and the
   BRANCH-vs-TREE ablation are manifests under examples/scenarios/,
   rendered by `scmp_sim table`.

   Usage:
     dune exec bench/main.exe                 # everything, reduced seeds
     dune exec bench/main.exe -- fig7 --full  # one figure, paper-scale
     dune exec bench/main.exe -- micro --json BENCH.json
     dune exec bench/main.exe -- micro --out runs/r1  # artifact dir

   Workloads live in the w_*.ml modules and are dispatched through the
   {!Workload} registry; unknown commands, unknown flags and malformed
   flag values all exit 2 with usage. See DESIGN.md ("Per-experiment
   index") and EXPERIMENTS.md (paper-vs-measured record). *)

let workloads : Workload.t list =
  W_trees.workloads @ W_protocols.workloads @ W_fabric.workloads
  @ W_resilience.workloads @ W_micro.workloads @ W_exec.workloads

let usage oc =
  Printf.fprintf oc
    "usage: main.exe [WORKLOAD...] [--full] [--ablate] [--csv DIR] [--json \
     PATH] [--jobs N] [--out DIR]\n\nworkloads (default: all):\n";
  List.iter
    (fun (w : Workload.t) ->
      Printf.fprintf oc "  %-12s %s\n" w.Workload.name w.doc)
    workloads;
  Printf.fprintf oc "  %-12s %s\n" "all" "every workload in order";
  Printf.fprintf oc
    "\nflags:\n\
    \  --full       paper-scale seed counts instead of the smoke quota\n\
    \  --ablate     include the candidate-set ablation in fig7\n\
    \  --csv DIR    also write every printed table as CSV into DIR\n\
    \  --json PATH  write the micro/e2e results as a scmp-report/1 file\n\
    \  --jobs N     worker domains for the parallel benches\n\
    \  --out DIR    per-run artifact dir: tables as CSV under DIR/csv,\n\
    \               micro results as DIR/bench.json, flags as DIR/meta.json\n"

let die fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "error: %s\n\n" m;
      usage stderr;
      exit 2)
    fmt

type cli = {
  mutable cmds : string list;  (* reversed *)
  mutable full : bool;
  mutable ablate : bool;
  mutable csv : string option;
  mutable json : string option;
  mutable jobs : int option;
  mutable out : string option;
}

(* Strict left-to-right parse: every unknown flag, unknown workload
   name or malformed flag value dies with usage on exit 2 — a typoed
   "--jbos 4" must never run the full suite with defaults. *)
let parse_cli args =
  let c =
    {
      cmds = [];
      full = false;
      ablate = false;
      csv = None;
      json = None;
      jobs = None;
      out = None;
    }
  in
  let value flag = function
    | v :: rest when String.length v = 0 || v.[0] <> '-' -> (v, rest)
    | _ -> die "%s expects a value" flag
  in
  let rec go = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
      usage stdout;
      exit 0
    | "--full" :: rest ->
      c.full <- true;
      go rest
    | "--ablate" :: rest ->
      c.ablate <- true;
      go rest
    | "--csv" :: rest ->
      let v, rest = value "--csv" rest in
      c.csv <- Some v;
      go rest
    | "--json" :: rest ->
      let v, rest = value "--json" rest in
      c.json <- Some v;
      go rest
    | "--out" :: rest ->
      let v, rest = value "--out" rest in
      c.out <- Some v;
      go rest
    | "--jobs" :: rest ->
      let v, rest = value "--jobs" rest in
      (match int_of_string_opt v with
      | Some j when j >= 1 -> c.jobs <- Some j
      | _ -> die "--jobs expects a positive integer, got %S" v);
      go rest
    | a :: _ when String.length a >= 1 && a.[0] = '-' ->
      die "unknown flag %S" a
    | a :: rest ->
      if a <> "all" && not (List.exists (fun w -> w.Workload.name = a) workloads)
      then die "unknown workload %S" a;
      c.cmds <- a :: c.cmds;
      go rest
  in
  go args;
  c

let mkdir_p dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let () =
  let c = parse_cli (List.tl (Array.to_list Sys.argv)) in
  (* --out DIR: a self-contained artifact directory per run. Contents
     carry no wall-clock stamps, so re-running the same command in the
     same tree reproduces the directory bit-for-bit. *)
  (match c.out with
  | None -> ()
  | Some dir ->
    mkdir_p dir;
    mkdir_p (Filename.concat dir "csv");
    if c.csv = None then c.csv <- Some (Filename.concat dir "csv");
    if c.json = None then c.json <- Some (Filename.concat dir "bench.json"));
  (match c.csv with
  | Some dir ->
    mkdir_p dir;
    Bench_util.csv_dir := Some dir
  | None -> ());
  let ctx =
    {
      Workload.full = c.full;
      ablate = c.ablate;
      jobs =
        (match c.jobs with Some j -> j | None -> Exec.Pool.default_jobs ());
      json = c.json;
    }
  in
  let cmds = match List.rev c.cmds with [] -> [ "all" ] | cs -> cs in
  let run name =
    if name = "all" then
      List.iter (fun (w : Workload.t) -> w.Workload.run ctx) workloads
    else
      (List.find (fun w -> w.Workload.name = name) workloads).Workload.run ctx
  in
  List.iter run cmds;
  match c.out with
  | None -> ()
  | Some dir ->
    let meta =
      Obs.Json.Obj
        [
          ("schema", Obs.Json.String "scmp-bench-meta/1");
          ( "workloads",
            Obs.Json.List (List.map (fun n -> Obs.Json.String n) cmds) );
          ("full", Obs.Json.Bool c.full);
          ("ablate", Obs.Json.Bool c.ablate);
          ("jobs", Obs.Json.Int ctx.Workload.jobs);
        ]
    in
    let path = Filename.concat dir "meta.json" in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Obs.Json.to_string ~pretty:true meta);
        Out_channel.output_char oc '\n')
