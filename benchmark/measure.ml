module W = Workload
module Stats = Scmp_util.Stats
module T = Scmp_util.Texttab

type metric = { name : string; unit_ : string; value : float }

(* Spans the workloads open, with the layer each belongs to; the two run
   spans' self time is the engine + Netsim + handler residual. *)
let spans =
  [
    ("topology.generate", "topology");
    ("netgraph.apsp", "netgraph");
    ("core.placement", "core");
    ("bench.members", "bench");
    ("protocols.runner_make", "protocols");
    ("exec.chaos_plan", "exec");
    ("protocols.driver_setup", "protocols");
    ("protocols.join", "protocols");
    ("protocols.leave", "protocols");
    ("protocols.send", "protocols");
    ("check.snapshot", "check");
    ("check.verify", "check");
    ("protocols.runner_run", "eventsim");
    ("exec.run_trial", "eventsim");
    ("mtree.tree_compute", "mtree");
  ]

let run_spans = [ "protocols.runner_run"; "exec.run_trial" ]

let counted_spans =
  [
    "topology.generate";
    "protocols.driver_setup";
    "protocols.join";
    "protocols.leave";
    "protocols.send";
  ]

type outcome = {
  attempted : int;
  failed : int;
  digest : string;
  rounds : int;
  metrics : metric list;
  table : string;
  trace : Obs.Json.t option;
}

type sample = {
  round : W.round;
  wall : float;
  traced : bool;
  minor_gcs : int;
  major_gcs : int;
  top_heap_words : int;  (* the process's heap high-water mark so far *)
}

let min_rounds = 5

(* Each round draws a fresh round seed from the workload's pool, so a
   measurement covers many inputs; with tracing, each drawn seed runs
   twice, untraced then traced, so the two walls compare like with
   like. *)
let collect size w ~seed ~seconds ~tracer =
  let pool = Array.of_list (W.round_seeds w) in
  let rng = Scmp_util.Prng.create seed in
  let deadline = Obs.Clock.now_s () +. seconds in
  let rec go acc i round_seed =
    let traced = tracer <> None && i mod 2 = 1 in
    let round_seed = if traced then round_seed else Scmp_util.Prng.pick rng pool in
    Option.iter (fun t -> if traced then Span.clear_kept t) tracer;
    let g0 = Gc.quick_stat () in
    let round, wall =
      Obs.Clock.time (fun () ->
          W.round ?tracer:(if traced then tracer else None) size w ~seed:round_seed)
    in
    let g1 = Gc.quick_stat () in
    let s =
      {
        round;
        wall;
        traced;
        minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
        top_heap_words = g1.Gc.top_heap_words;
      }
    in
    let acc = s :: acc in
    let enough kind =
      List.length (List.filter (fun s -> s.traced = kind) acc) >= min_rounds
    in
    if Obs.Clock.now_s () >= deadline && enough false && (tracer = None || enough true)
    then List.rev acc
    else go acc (i + 1) round_seed
  in
  go [] 0 0

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let runs_of samples = List.concat_map (fun s -> s.round.W.runs) samples
let median f samples = Stats.median_l (List.map f samples)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The first [min_rounds] untraced rounds always run and draw the same
   round seeds in both modes: allocation, the heap peak and the digest
   come from them, so they repeat exactly for a seed whatever the host's
   speed. *)
let firsts samples =
  List.filteri (fun i _ -> i < min_rounds) (List.filter (fun s -> not s.traced) samples)

(* The tail is the median round's slowest run: the largest of 180 runs
   on paper, of 60 trials on faulty, of 4 runs on flood; scale's rounds
   hold one run, so there it is the median run. A host hiccup slows a
   few consecutive rounds, which the median skips, where a percentile
   over pooled runs would count every run they slowed. *)
let slowest_ms s =
  1e3 *. List.fold_left (fun m (r : W.run) -> Float.max m r.wall_s) 0.0 s.round.W.runs

let e2e samples =
  let run_wall s = sum (fun (r : W.run) -> r.wall_s) s.round.W.runs in
  let rate f =
    median (fun s -> ratio (float_of_int (isum f s.round.W.runs)) (run_wall s)) samples
  in
  let per_run_ms = List.map (fun (r : W.run) -> r.wall_s *. 1e3) (runs_of samples) in
  let firsts = firsts samples in
  let first_runs = runs_of firsts in
  (* After the first five rounds, not after all of them: the high-water
     mark keeps rising over dozens of rounds, so it would grow with the
     host's speed. *)
  let top = (List.nth firsts (min_rounds - 1)).top_heap_words in
  [
    ("setup_s", "s", median (fun s -> s.round.W.setup_s) samples);
    ("wall_s", "s", median (fun s -> s.wall) samples);
    ( "runs_per_s",
      "1/s",
      median (fun s -> float_of_int (List.length s.round.W.runs) /. s.wall) samples );
    ("events_per_s", "1/s", rate (fun r -> r.W.events));
    ("deliveries_per_s", "1/s", rate (fun r -> r.W.deliveries));
    ("run_p50_ms", "ms", Stats.percentile_l 50.0 per_run_ms);
    ("run_tail_ms", "ms", median slowest_ms samples);
    ( "words_per_event",
      "words",
      ratio
        (sum (fun (r : W.run) -> r.minor_words) first_runs)
        (float_of_int (isum (fun r -> r.W.events) first_runs)) );
    ("peak_heap_mb", "MB", float_of_int (top * (Sys.word_size / 8)) /. 1048576.0);
  ]

let layer_table tracer ~rounds ~traced_wall =
  let aggs = Span.aggregates tracer in
  let find name = List.assoc_opt name aggs in
  let per_round x = x /. float_of_int rounds in
  let tab =
    T.create
      [
        T.column ~align:T.Left "span";
        T.column ~align:T.Left "layer";
        T.column "calls/round";
        T.column "self s/round";
        T.column "self %";
        T.column "total s/round";
        T.column "minor words/round";
        T.column "major words/round";
      ]
  in
  List.iter
    (fun (name, layer) ->
      match find name with
      | None -> ()
      | Some (a : Span.agg) ->
        T.add_row tab
          [
            name;
            layer;
            Printf.sprintf "%.0f" (per_round (float_of_int a.calls));
            Printf.sprintf "%.4f" (per_round a.self_s);
            Printf.sprintf "%.1f" (100.0 *. a.self_s /. traced_wall);
            Printf.sprintf "%.4f" (per_round a.total_s);
            Printf.sprintf "%.0f" (per_round a.self_minor);
            Printf.sprintf "%.0f" (per_round a.self_major);
          ])
    spans;
  let layer_self layer =
    sum
      (fun (name, l) ->
        match find name with Some a when l = layer -> a.Span.self_s | _ -> 0.0)
      spans
  in
  let rollup =
    List.sort_uniq String.compare (List.map snd spans)
    |> List.map (fun l -> (l, layer_self l))
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.map (fun (l, s) -> Printf.sprintf "%s %.1f%%" l (100.0 *. s /. traced_wall))
  in
  T.render tab ^ "\nlayers by self time: " ^ String.concat ", " rollup ^ "\n"

(* Times are seconds per traced round and counts are per traced round. *)
let layer_metrics tracer ~traced ~untraced =
  let rounds = List.length traced in
  let k = float_of_int rounds in
  let aggs = Span.aggregates tracer in
  let agg name f = match List.assoc_opt name aggs with Some a -> f a | None -> 0.0 in
  let self name = agg name (fun a -> a.Span.self_s) /. k in
  let runs = runs_of traced in
  let per_round f = float_of_int (isum f runs) /. k in
  let traced_wall = sum (fun s -> s.wall) traced in
  let run_wall = sum (fun r -> r.W.wall_s) runs /. k in
  let control = per_round (fun r -> r.W.control_tx) in
  let retx = per_round (fun r -> r.W.retransmissions) in
  let secs name v = (name, "s", v) in
  let count name v = (name, "count", v) in
  let ratio_of name v = (name, "ratio", v) in
  let entry_spans =
    List.filter
      (fun (s, _) -> not (List.mem s run_spans || s = "mtree.tree_compute"))
      spans
  in
  let twins = List.filteri (fun i _ -> i < rounds) untraced in
  let gcs f = float_of_int (isum f traced) /. k in
  let values =
    List.map (fun (sp, _) -> secs (sp ^ "_s") (self sp)) entry_spans
    @ List.map
        (fun sp ->
          count (sp ^ "_calls") (agg sp (fun a -> float_of_int a.Span.calls) /. k))
        counted_spans
    @ [
        secs "eventsim.residual_s" (sum self run_spans);
        count "eventsim.events" (per_round (fun r -> r.W.events));
        count "eventsim.heap_high_water"
          (float_of_int (List.fold_left (fun m r -> max m r.W.heap_high_water) 0 runs));
        secs "mtree.tree_compute_s" (self "mtree.tree_compute");
        count "mtree.tree_computes" (per_round (fun r -> r.W.tree_computes));
        ratio_of "mtree.tree_compute_share" (ratio (self "mtree.tree_compute") run_wall);
        secs "runner.phase_setup_s" (sum (fun r -> r.W.phase_setup_s) runs /. k);
        secs "runner.phase_join_s" (sum (fun r -> r.W.phase_join_s) runs /. k);
        secs "runner.phase_data_s" (sum (fun r -> r.W.phase_data_s) runs /. k);
        count "routes.spt_computed" (per_round (fun r -> r.W.spt_computed));
        count "routes.invalidated" (per_round (fun r -> r.W.spt_invalidated));
        count "netsim.routes_epoch" (per_round (fun r -> r.W.routes_epochs));
        count "netsim.data_transmissions" (per_round (fun r -> r.W.data_tx));
        count "netsim.control_transmissions" control;
        count "netsim.dropped" (per_round (fun r -> r.W.dropped));
        ratio_of "netsim.control_per_delivery"
          (ratio control (per_round (fun r -> r.W.deliveries)));
        count "protocols.retransmissions" retx;
        count "protocols.giveups" (per_round (fun r -> r.W.giveups));
        ratio_of "protocols.retx_ratio" (ratio retx control);
        count "scmp.repairs" (per_round (fun r -> r.W.repairs));
      ]
    @ List.filter_map
        (fun (sp, _) ->
          if sp = "mtree.tree_compute" then None
          else
            let words = agg sp (fun a -> a.Span.self_minor) /. k in
            Some ("gc.minor_words." ^ sp, "words", words))
        spans
    @ [
        count "gc.minor_collections" (gcs (fun s -> s.minor_gcs));
        count "gc.major_collections" (gcs (fun s -> s.major_gcs));
        ratio_of "obs.trace_overhead"
          (Stats.median_l (List.map2 (fun u t -> t.wall /. u.wall) twins traced));
        ratio_of "obs.span_coverage"
          (ratio (sum (fun (_, a) -> a.Span.self_s) aggs) traced_wall);
      ]
  in
  (values, layer_table tracer ~rounds ~traced_wall)

let measure ?expected size w ~seed ~seconds ~trace =
  let tracer = if trace then Some (Span.create ()) else None in
  let samples = collect size w ~seed ~seconds ~tracer in
  let traced = List.filter (fun s -> s.traced) samples in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let firsts = firsts samples in
  let digest =
    Digest.to_hex
      (Digest.string (String.concat " " (List.map (fun s -> s.round.W.digest) firsts)))
  in
  let runs ss = List.length (runs_of ss) in
  (* Every run answers for its own rule. A digest other than the
     expected one fails every run it covers, and so does a traced round
     whose results differ from its untraced twin. *)
  let rec twins_differ = function
    | u :: t :: rest ->
      (if t.round.W.digest <> u.round.W.digest then runs [ t ] else 0)
      + twins_differ rest
    | _ -> 0
  in
  let failed =
    min (runs samples)
    @@ isum (fun (r : W.run) -> if r.ok then 0 else 1) (runs_of samples)
    + (match expected with Some d when d <> digest -> runs firsts | _ -> 0)
    + if trace then twins_differ samples else 0
  in
  let values, table =
    match tracer with
    | None -> (e2e samples, "")
    | Some t -> layer_metrics t ~traced ~untraced
  in
  {
    attempted = runs samples;
    failed;
    digest;
    rounds = List.length samples;
    metrics = List.map (fun (name, unit_, value) -> { name; unit_; value }) values;
    table;
    trace = Option.map Span.trace_json tracer;
  }
