module Q = Scmp_util.Radix_heap

(* Events live in a struct-of-arrays slab and the radix heap queues
   their int handles, so scheduling an event writes a few array slots
   and allocates nothing: no event record, no option, no thunk for the
   hot kinds. A handle is recycled through a free list as soon as its
   event is popped, before the event runs, so a handler that schedules
   its successor reuses the slot it just vacated.

   A slot's flag byte holds the event kind in its low two bits and the
   background mark in bit 2:

   - [closure] is the general fallback: any [unit -> unit], kept in
     [fns] until it runs.
   - [tick] is a periodic task ({!every}): one handle for its whole
     lifetime, re-enqueued after each firing, with its interval and
     horizon in [periods].
   - [fast] carries five immediate ints in [args] and a {!dispatch}
     in [disps] — a handler closure registered once per event family
     (e.g. Netsim's single-edge delivery), not once per event. What the
     ints mean is the family's private contract. *)

type dispatch = { run : int -> int -> int -> int -> int -> unit }

let k_closure = 0
let k_tick = 1
let k_fast = 2
let bg_bit = 4
let nargs = 5

let nop () = ()
let nop_dispatch = { run = (fun _ _ _ _ _ -> ()) }

type t = {
  mutable clock : float;
  mutable clock_image : int;  (* [Q.image clock] *)
  queue : Q.t;  (* event handles *)
  mutable flags : Bytes.t;
  mutable fns : (unit -> unit) array;  (* closure or tick body *)
  mutable disps : dispatch array;
      (* a popped fast event leaves its dispatch behind: families are
         few and live as long as the engine *)
  mutable args : int array;
      (* [nargs] per handle; the first links the free list while the
         handle is free *)
  mutable periods : float array;  (* tick interval and horizon *)
  mutable free : int;  (* free-list head; -1 when the slab is full *)
  mutable foreground : int;
  mutable executed : int;
  mutable heap_hwm : int;
}

let create () =
  {
    clock = 0.0;
    clock_image = Q.image 0.0;
    queue = Q.create ();
    flags = Bytes.empty;
    fns = [||];
    disps = [||];
    args = [||];
    periods = [||];
    free = -1;
    foreground = 0;
    executed = 0;
    heap_hwm = 0;
  }

let now t = t.clock

(* Double the slab and chain the new handles, lowest first, into the
   (empty) free list. *)
let grow t =
  let cap = Bytes.length t.flags in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let flags = Bytes.make ncap '\000' in
  Bytes.blit t.flags 0 flags 0 cap;
  let fns = Array.make ncap nop in
  Array.blit t.fns 0 fns 0 cap;
  let disps = Array.make ncap nop_dispatch in
  Array.blit t.disps 0 disps 0 cap;
  let args = Array.make (nargs * ncap) 0 in
  Array.blit t.args 0 args 0 (nargs * cap);
  let periods = Array.make (2 * ncap) 0.0 in
  Array.blit t.periods 0 periods 0 (2 * cap);
  for h = cap to ncap - 1 do
    args.(nargs * h) <- (if h + 1 < ncap then h + 1 else -1)
  done;
  t.flags <- flags;
  t.fns <- fns;
  t.disps <- disps;
  t.args <- args;
  t.periods <- periods;
  t.free <- cap

let alloc t flag =
  if t.free < 0 then grow t;
  let h = t.free in
  t.free <- Array.unsafe_get t.args (nargs * h);
  Bytes.unsafe_set t.flags h (Char.unsafe_chr flag);
  h

let release t h =
  Array.unsafe_set t.args (nargs * h) t.free;
  t.free <- h

let flag kind background = if background then kind lor bg_bit else kind

let push t ~time h ~background =
  Q.add t.queue ~key:time h;
  let len = Q.length t.queue in
  if len > t.heap_hwm then t.heap_hwm <- len;
  if not background then t.foreground <- t.foreground + 1

(* [caller] names the public entry point so a "time in the past" error
   points at the call site that actually failed, not at schedule_at. *)
let enqueue t ~caller ~time ~background thunk =
  if time < t.clock then invalid_arg (caller ^ ": time in the past");
  let h = alloc t (flag k_closure background) in
  Array.unsafe_set t.fns h thunk;
  push t ~time h ~background

let schedule_at t ?(background = false) ~time thunk =
  enqueue t ~caller:"Engine.schedule_at" ~time ~background thunk

let schedule t ?(background = false) ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  enqueue t ~caller:"Engine.schedule" ~time:(t.clock +. delay) ~background thunk

let dispatch run = { run }

let schedule_fast t ?(background = false) ~time d a b c x y =
  if time < t.clock then invalid_arg "Engine.schedule_fast: time in the past";
  let h = alloc t (flag k_fast background) in
  Array.unsafe_set t.disps h d;
  let args = t.args and o = nargs * h in
  Array.unsafe_set args o a;
  Array.unsafe_set args (o + 1) b;
  Array.unsafe_set args (o + 2) c;
  Array.unsafe_set args (o + 3) x;
  Array.unsafe_set args (o + 4) y;
  push t ~time h ~background

let every t ~interval ?until ?(background = false) thunk =
  if interval <= 0.0 then invalid_arg "Engine.every: non-positive interval";
  let tuntil = match until with Some stop -> stop | None -> infinity in
  (* One handle for the task's whole lifetime: each firing pushes it
     back (see [run_one]). The [until] window also gates the *first*
     firing: a periodic task whose first tick would land past the
     horizon never fires at all. *)
  let first = t.clock +. interval in
  if first <= tuntil then begin
    let h = alloc t (flag k_tick background) in
    Array.unsafe_set t.fns h thunk;
    Array.unsafe_set t.periods (2 * h) interval;
    Array.unsafe_set t.periods ((2 * h) + 1) tuntil;
    push t ~time:first h ~background
  end

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

(* Pop and execute the event whose key image [ik] was just located. The
   clock is boxed only when it moves. A fast or closure event frees its
   handle before it runs. A tick re-enqueues its handle *after* its
   body ran, preserving the old recursive-closure FIFO order: events the
   body scheduled for the same next instant were inserted first and pop
   first. *)
let run_one t ik =
  let h = Q.pop_min t.queue in
  if ik <> t.clock_image then begin
    t.clock_image <- ik;
    t.clock <- Q.key_of_image ik
  end;
  let fl = Char.code (Bytes.unsafe_get t.flags h) in
  let background = fl land bg_bit <> 0 in
  if not background then t.foreground <- t.foreground - 1;
  t.executed <- t.executed + 1;
  let kind = fl land 3 in
  if kind = k_fast then begin
    let d = Array.unsafe_get t.disps h in
    let args = t.args and o = nargs * h in
    let a = Array.unsafe_get args o
    and b = Array.unsafe_get args (o + 1)
    and c = Array.unsafe_get args (o + 2)
    and x = Array.unsafe_get args (o + 3)
    and y = Array.unsafe_get args (o + 4) in
    release t h;
    d.run a b c x y
  end
  else if kind = k_closure then begin
    let fn = Array.unsafe_get t.fns h in
    Array.unsafe_set t.fns h nop;
    release t h;
    fn ()
  end
  else begin
    (Array.unsafe_get t.fns h) ();
    let next = t.clock +. Array.unsafe_get t.periods (2 * h) in
    if next <= Array.unsafe_get t.periods ((2 * h) + 1) then
      push t ~time:next h ~background
    else begin
      Array.unsafe_set t.fns h nop;
      release t h
    end
  end

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
  | Some stop when stop > t.clock ->
    t.clock <- stop;
    t.clock_image <- Q.image stop
  | _ -> ()
