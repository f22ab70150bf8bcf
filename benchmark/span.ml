type agg = {
  mutable calls : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable self_minor : float;
  mutable self_major : float;
}

type frame = {
  id : int;
  name : string;
  parent : int;
  run : int;
  mutable pre_minor : float;
  mutable start : float;
  mutable minor0 : float;
  mutable major0 : float;
  mutable child_s : float;
  mutable child_minor : float;
  mutable child_major : float;
}

type span = {
  s_name : string;
  s_start : float;
  s_end : float;
  s_parent : int;
  s_run : int;
  s_minor : float;
  s_major : float;
  s_id : int;
}

type t = {
  t0 : float;
  mutable stack : frame list;
  mutable next_id : int;
  mutable run_id : int;
  mutable kept : span list;
  aggs : (string, agg) Hashtbl.t;
}

let create () =
  {
    t0 = Obs.Clock.now_s ();
    stack = [];
    next_id = 0;
    run_id = -1;
    kept = [];
    aggs = Hashtbl.create 32;
  }

let set_run tracer r = Option.iter (fun t -> t.run_id <- r) tracer
let clear_kept t = t.kept <- []

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
    let a =
      { calls = 0; total_s = 0.0; self_s = 0.0; self_minor = 0.0; self_major = 0.0 }
    in
    Hashtbl.replace t.aggs name a;
    a

(* [Gc.counters] is not GC-safe in OCaml 5.1 (it boxes three floats
   without rooting them), so major words come from [quick_stat]. *)
let major_words () = (Gc.quick_stat ()).Gc.major_words

(* Every allocation the tracer makes for a span happens outside the
   span's own [minor0 .. close] window, and the span's whole footprint
   (its own words plus that instrumentation) is charged to the parent's
   children, so no span's self allocation includes tracer records. *)
let open_frame t name =
  let pre_minor = Gc.minor_words () in
  let parent = match t.stack with f :: _ -> f.id | [] -> -1 in
  let f =
    {
      id = t.next_id;
      name;
      parent;
      run = t.run_id;
      pre_minor;
      start = 0.0;
      minor0 = 0.0;
      major0 = 0.0;
      child_s = 0.0;
      child_minor = 0.0;
      child_major = 0.0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- f :: t.stack;
  f.start <- Obs.Clock.now_s ();
  f.major0 <- major_words ();
  f.minor0 <- Gc.minor_words ();
  f

let close_frame t f =
  let minor = Gc.minor_words () -. f.minor0 in
  let stop = Obs.Clock.now_s () in
  let major = major_words () -. f.major0 in
  let dur = stop -. f.start in
  let a = agg t f.name in
  a.calls <- a.calls + 1;
  a.total_s <- a.total_s +. dur;
  a.self_s <- a.self_s +. (dur -. f.child_s);
  a.self_minor <- a.self_minor +. (minor -. f.child_minor);
  a.self_major <- a.self_major +. (major -. f.child_major);
  t.kept <-
    {
      s_name = f.name;
      s_start = f.start -. t.t0;
      s_end = stop -. t.t0;
      s_parent = f.parent;
      s_run = f.run;
      s_minor = minor;
      s_major = major;
      s_id = f.id;
    }
    :: t.kept;
  t.stack <- List.tl t.stack;
  match t.stack with
  | p :: _ ->
    p.child_s <- p.child_s +. dur;
    p.child_major <- p.child_major +. major;
    p.child_minor <- p.child_minor +. (Gc.minor_words () -. f.pre_minor)
  | [] -> ()

let with_span tracer name f =
  match tracer with
  | None -> f ()
  | Some t -> (
    let fr = open_frame t name in
    match f () with
    | v ->
      close_frame t fr;
      v
    | exception e ->
      close_frame t fr;
      raise e)

let attribute tracer name ~seconds ~count =
  match tracer with
  | None -> ()
  | Some t ->
    let a = agg t name in
    a.calls <- a.calls + count;
    a.total_s <- a.total_s +. seconds;
    a.self_s <- a.self_s +. seconds;
    match t.stack with p :: _ -> p.child_s <- p.child_s +. seconds | [] -> ()

let aggregates t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.aggs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let trace_json t =
  let span s =
    Obs.Json.Obj
      [
        ("id", Obs.Json.Int s.s_id);
        ("name", Obs.Json.String s.s_name);
        ("start", Obs.Json.Float s.s_start);
        ("end", Obs.Json.Float s.s_end);
        ("parent", Obs.Json.Int s.s_parent);
        ("run", Obs.Json.Int s.s_run);
        ("minor_words", Obs.Json.Float s.s_minor);
        ("major_words", Obs.Json.Float s.s_major);
      ]
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "scmp-bench-trace/1");
      ("spans", Obs.Json.List (List.rev_map span t.kept));
    ]
