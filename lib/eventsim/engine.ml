module Q = Scmp_util.Radix_heap

(* The event representation is a variant, not a universal closure: the
   hot event kinds of a packet simulation carry their state in unboxed
   int fields and dispatch through a handler registered once, so the
   per-event cost is one small record in the radix heap — no thunk,
   no captured environment.

   - [Closure] is the general fallback: any [unit -> unit], the
     historical event shape.
   - [Tick] is a periodic task ({!every}): one record allocated at
     registration and re-enqueued after each firing, so N firings keep
     O(1) live event records.
   - [Fast] carries five immediate ints and a {!dispatch} — a handler
     closure registered once per event family (e.g. Netsim's single-
     edge delivery), not once per event. What the ints mean is the
     family's private contract. *)

type dispatch = { run : int -> int -> int -> int -> int -> unit }

type event =
  | Closure of { fn : unit -> unit; bg : bool }
  | Tick of tick
  | Fast of {
      d : dispatch;
      a : int;
      b : int;
      c : int;
      x : int;
      y : int;
      fbg : bool;
    }

and tick = {
  tfn : unit -> unit;
  interval : float;
  tuntil : float;  (* [infinity] when unbounded *)
  tbg : bool;
}

type t = {
  mutable clock : float;
  queue : event Q.t;
  mutable foreground : int;
  mutable executed : int;
  mutable heap_hwm : int;
}

let create () =
  {
    clock = 0.0;
    queue = Q.create ();
    foreground = 0;
    executed = 0;
    heap_hwm = 0;
  }

let now t = t.clock

let is_background = function
  | Closure { bg; _ } -> bg
  | Tick { tbg; _ } -> tbg
  | Fast { fbg; _ } -> fbg

let push t ~time ev ~background =
  Q.add t.queue ~key:time ev;
  let len = Q.length t.queue in
  if len > t.heap_hwm then t.heap_hwm <- len;
  if not background then t.foreground <- t.foreground + 1

(* [caller] names the public entry point so a "time in the past" error
   points at the call site that actually failed, not at schedule_at. *)
let enqueue t ~caller ~time ~background thunk =
  if time < t.clock then invalid_arg (caller ^ ": time in the past");
  push t ~time (Closure { fn = thunk; bg = background }) ~background

let schedule_at t ?(background = false) ~time thunk =
  enqueue t ~caller:"Engine.schedule_at" ~time ~background thunk

let schedule t ?(background = false) ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  enqueue t ~caller:"Engine.schedule" ~time:(t.clock +. delay) ~background thunk

let dispatch run = { run }

let schedule_fast t ?(background = false) ~time d a b c x y =
  if time < t.clock then invalid_arg "Engine.schedule_fast: time in the past";
  push t ~time (Fast { d; a; b; c; x; y; fbg = background }) ~background

let every t ~interval ?until ?(background = false) thunk =
  if interval <= 0.0 then invalid_arg "Engine.every: non-positive interval";
  let tuntil = match until with Some stop -> stop | None -> infinity in
  (* One event record for the task's whole lifetime: each firing pushes
     this same record back (see [exec]). The [until] window also gates
     the *first* firing: a periodic task whose first tick would land
     past the horizon never fires at all. *)
  let first = t.clock +. interval in
  if first <= tuntil then
    push t ~time:first (Tick { tfn = thunk; interval; tuntil; tbg = background })
      ~background

let pending t = Q.length t.queue
let pending_foreground t = t.foreground
let events_executed t = t.executed
let heap_high_water t = t.heap_hwm

let observe t m =
  Obs.Metrics.set_counter
    (Obs.Metrics.counter m "engine/events_executed")
    t.executed;
  Obs.Metrics.set_counter
    (Obs.Metrics.counter m "engine/heap_high_water")
    t.heap_hwm

(* Execute a popped event. The clock is already set and the accounting
   done. A [Tick] re-enqueues itself *after* its body ran, preserving
   the old recursive-closure FIFO order: events the body scheduled for
   the same next instant were inserted first and pop first. *)
let exec t ev =
  match ev with
  | Closure { fn; _ } -> fn ()
  | Fast { d; a; b; c; x; y; _ } -> d.run a b c x y
  | Tick k ->
    k.tfn ();
    let next = t.clock +. k.interval in
    if next <= k.tuntil then push t ~time:next ev ~background:k.tbg

let run_one t ik =
  let ev = Q.pop_min t.queue in
  let time = Q.key_of_image ik in
  if time <> t.clock then t.clock <- time;
  if not (is_background ev) then t.foreground <- t.foreground - 1;
  t.executed <- t.executed + 1;
  exec t ev

let step t =
  if Q.is_empty t.queue then false
  else begin
    run_one t (Q.min_image t.queue);
    true
  end

(* Without [until]: run to quiescence — until no foreground event
   remains (background-only residue, like periodic IGMP queries, does
   not keep the simulation alive). With [until]: run every event, of
   either kind, scheduled within the window. Either loop is a single
   locate-and-pop per event — the radix heap memoizes the located
   minimum between [min_image] and [pop_min], so there is no
   peek-then-pop double search. *)
let run ?until t =
  (match until with
  | None ->
    (* foreground > 0 implies the queue is non-empty *)
    while t.foreground > 0 do
      run_one t (Q.min_image t.queue)
    done
  | Some stop ->
    let istop = Q.image stop in
    (* an empty queue reports max_int, above every real key; locate
       the minimum once per iteration and hand it to the pop *)
    let ik = ref (Q.min_image t.queue) in
    while !ik <= istop do
      run_one t !ik;
      ik := Q.min_image t.queue
    done);
  match until with
  | Some stop when stop > t.clock -> t.clock <- stop
  | _ -> ()
