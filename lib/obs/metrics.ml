type counter = { mutable c : int }
type gauge = { mutable g : float; mutable g_set : bool }

type histogram = {
  bounds : float array;  (* upper bucket bounds, strictly increasing *)
  counts : int array;    (* length bounds + 1; last = overflow *)
  mutable h_count : int;
  h_sum : float array;
      (* one cell: a float array stores the running sum unboxed, where
         a mutable float field would box every observation *)
}

type entry = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  tbl : (string, entry * bool) Hashtbl.t;  (* name -> (entry, wallclock) *)
  mutable order : string list;             (* registration order, newest first *)
}

let create () = { tbl = Hashtbl.create 32; order = [] }

(* Upper bucket bounds of every histogram, strictly increasing. *)
let buckets = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

let register t name ~wallclock make describe =
  match Hashtbl.find_opt t.tbl name with
  | Some (entry, _) -> (
    match describe entry with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered with another kind" name))
  | None ->
    let entry, v = make () in
    Hashtbl.replace t.tbl name (entry, wallclock);
    t.order <- name :: t.order;
    v

let counter ?(wallclock = false) t name =
  register t name ~wallclock
    (fun () ->
      let c = { c = 0 } in
      (Counter c, c))
    (function Counter c -> Some c | _ -> None)

let gauge ?(wallclock = false) t name =
  register t name ~wallclock
    (fun () ->
      let g = { g = 0.0; g_set = false } in
      (Gauge g, g))
    (function Gauge g -> Some g | _ -> None)

let histogram ?(wallclock = false) t name =
  register t name ~wallclock
    (fun () ->
      let h =
        {
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          h_count = 0;
          h_sum = [| 0.0 |];
        }
      in
      (Histogram h, h))
    (function Histogram h -> Some h | _ -> None)

let add c n = c.c <- c.c + n
let set_counter c v = c.c <- v
let counter_value c = c.c

let set g v =
  g.g <- v;
  g.g_set <- true

let set_max g v = if (not g.g_set) || v > g.g then set g v
let gauge_value g = g.g

(* First bucket whose bound is >= v, else the overflow bucket. A
   top-level loop rather than a local closure over [h] and [v], which
   would be allocated per observation. *)
let rec slot (bounds : float array) (v : float) i =
  if i >= Array.length bounds || v <= Array.unsafe_get bounds i then i
  else slot bounds v (i + 1)

let observe h v =
  let i = slot h.bounds v 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum.(0) <- h.h_sum.(0) +. v

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum.(0)

let names t = List.sort String.compare (List.rev t.order)

(* Commutative-and-associative per-kind combine: counters and histogram
   buckets add, gauges keep the maximum. Merging the per-cell registries
   of a sweep in cell-index order therefore yields the same totals as
   any execution interleaving — the deterministic-reduce contract the
   Exec layer relies on. *)
let copy_entry = function
  | Counter c -> Counter { c = c.c }
  | Gauge g -> Gauge { g = g.g; g_set = g.g_set }
  | Histogram h ->
    Histogram
      {
        bounds = Array.copy h.bounds;
        counts = Array.copy h.counts;
        h_count = h.h_count;
        h_sum = Array.copy h.h_sum;
      }

let merge_entry name dst src =
  match (dst, src) with
  | Counter d, Counter s -> d.c <- d.c + s.c
  | Gauge d, Gauge s -> if s.g_set then set_max d s.g
  | Histogram d, Histogram s ->
    if d.bounds <> s.bounds then
      invalid_arg
        (Printf.sprintf "Metrics.merge: %S histogram bounds differ" name);
    Array.iteri (fun i n -> d.counts.(i) <- d.counts.(i) + n) s.counts;
    d.h_count <- d.h_count + s.h_count;
    d.h_sum.(0) <- d.h_sum.(0) +. s.h_sum.(0)
  | _ ->
    invalid_arg
      (Printf.sprintf "Metrics.merge: %S registered with another kind" name)

let merge t src =
  List.iter
    (fun name ->
      match Hashtbl.find_opt src.tbl name with
      | None -> ()
      | Some (s_entry, s_wallclock) -> (
        match Hashtbl.find_opt t.tbl name with
        | Some (d_entry, _) -> merge_entry name d_entry s_entry
        | None ->
          Hashtbl.replace t.tbl name (copy_entry s_entry, s_wallclock);
          t.order <- name :: t.order))
    (List.rev src.order)

let entry_json = function
  | Counter c -> Json.Int c.c
  | Gauge g -> Json.Float g.g
  | Histogram h ->
    let buckets =
      List.init (Array.length h.bounds) (fun i ->
          Json.Obj [ ("le", Json.Float h.bounds.(i)); ("n", Json.Int h.counts.(i)) ])
      @ [
          Json.Obj
            [ ("le", Json.Null); ("n", Json.Int h.counts.(Array.length h.bounds)) ];
        ]
    in
    Json.Obj
      [
        ("count", Json.Int h.h_count);
        ("sum", Json.Float h.h_sum.(0));
        ("buckets", Json.List buckets);
      ]

let to_json ?(wallclock = true) t =
  let fields =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt t.tbl name with
        | Some (_, true) when not wallclock -> None
        | Some (entry, _) -> Some (name, entry_json entry)
        | None -> None)
      (names t)
  in
  Json.Obj fields
