(* Shared benchmark plumbing: table printing with optional CSV export,
   the experiments' scenario builder, and the calibrated best-of-k
   timing helpers used by the micro-benchmarks. *)

module T = Scmp_util.Texttab

let pr fmt = Printf.printf fmt

(* With --csv DIR, every printed table is also written as a CSV file
   named after its title. *)
let csv_dir : string option ref = ref None

let slugify s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '_')
    (String.lowercase_ascii s)

let print_table ?title tab =
  T.print ?title tab;
  match (!csv_dir, title) with
  | Some dir, Some title ->
    let path = Filename.concat dir (slugify title ^ ".csv") in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (T.to_csv tab))
  | _ -> ()

let section title =
  pr "\n%s\n%s\n" title (String.make (String.length title) '=')

(* The experiments' scenario builder; bench parameters are fixed, so a
   failed draw is a bug. *)
let draw ~rng ~group_size spec =
  match Scmp.Setup.draw ~rng ~group_size spec with
  | Ok s -> s
  | Error msg -> failwith msg

let calibrate_runs ~min_batch_s f =
  let rec go runs =
    let (), s =
      Obs.Clock.time (fun () ->
          for _ = 1 to runs do
            ignore (f ())
          done)
    in
    if s >= min_batch_s || runs >= 1_000_000 then runs
    else
      let scale =
        if s <= 0.0 then 16.0 else Float.min 16.0 (min_batch_s /. s *. 1.25)
      in
      go (max (runs + 1) (int_of_float (float_of_int runs *. scale)))
  in
  go 1

let best_of_ns ?(k = 5) ?(min_batch_s = 2e-3) f =
  let runs = calibrate_runs ~min_batch_s f in
  let best = ref infinity in
  for _ = 1 to k do
    let (), s =
      Obs.Clock.time (fun () ->
          for _ = 1 to runs do
            ignore (f ())
          done)
    in
    let per = s /. float_of_int runs in
    if per < !best then best := per
  done;
  !best *. 1e9

(* Median-of-ratios A/B timing: k rounds of adjacent (fa, fb) batches,
   each yielding one fb/fa per-run ratio. The host's speed moves by tens
   of percent between bench invocations — and not uniformly: a
   pointer-chasing workload degrades more under memory contention than
   an array-walking one — so ns figures recorded by separate runs do
   not divide into a meaningful ratio. Adjacent batches see the same
   host conditions, and the median discards the rounds a phase change
   lands in the middle of. *)
let paired_ratio ?(k = 9) ?(min_batch_s = 2e-3) fa fb =
  let runs_a = calibrate_runs ~min_batch_s fa in
  let runs_b = calibrate_runs ~min_batch_s fb in
  let ratios =
    Array.init k (fun _ ->
        let (), sa =
          Obs.Clock.time (fun () ->
              for _ = 1 to runs_a do
                ignore (fa ())
              done)
        in
        let (), sb =
          Obs.Clock.time (fun () ->
              for _ = 1 to runs_b do
                ignore (fb ())
              done)
        in
        sb /. float_of_int runs_b /. (sa /. float_of_int runs_a))
  in
  Array.sort compare ratios;
  ratios.(k / 2)

(* Median-of-ratios A/B timing paired per operation: each of [k] rounds
   runs [ops] pairs, one [fa] and one [fb] each timed on its own, the
   pair order alternating (ABBA), so host drift lands on both sides
   alike. An untimed [Gc.major ()] before each operation settles the
   garbage the previous one left, so each side pays only for its own.
   Returns the median of the rounds' (fb time / fa time) and each side's
   fastest operation in ns. *)
let paired_per_op ?(k = 9) ~ops fa fb =
  let fastest_a = ref infinity and fastest_b = ref infinity in
  let time best f =
    Gc.major ();
    let _, s = Obs.Clock.time f in
    if s < !best then best := s;
    s
  in
  let ratios =
    Array.init k (fun _ ->
        let sa = ref 0.0 and sb = ref 0.0 in
        for i = 1 to ops do
          if i land 1 = 1 then begin
            sa := !sa +. time fastest_a fa;
            sb := !sb +. time fastest_b fb
          end
          else begin
            sb := !sb +. time fastest_b fb;
            sa := !sa +. time fastest_a fa
          end
        done;
        !sb /. !sa)
  in
  Array.sort compare ratios;
  (ratios.(k / 2), !fastest_a *. 1e9, !fastest_b *. 1e9)
