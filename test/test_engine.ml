(* The event-kernel suite: the scheduler queue checked against the
   binary heap as the engine drives it, its error paths, the engine's
   error paths and until-window edges, transmit-hook registration
   order, and the O(1)-record periodic task. *)

module Engine = Eventsim.Engine
module Netsim = Eventsim.Netsim
module Q = Scmp_util.Radix_heap
module Heap = Scmp_util.Heap
module G = Netgraph.Graph

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ---------------- the engine's event queue ----------------

   The queue the engine schedules on, with boxed payloads as the
   engine uses it. The int-payload trace (add_image, clear and reuse)
   lives with the other Radix_heap tests in test_csr.ml. *)

(* Random monotone schedule/pop traces, replayed against both
   structures. Key deltas are quantized to multiples of 0.5 (exactly
   representable), so equal-key collisions are frequent and the FIFO
   sequence rule is exercised, not just min-ordering; delta 0 re-adds
   at exactly the last popped key, the monotonicity floor itself.
   Payloads are boxed insertion sequence numbers: every pop must
   return the same (key, seq) pair from both structures, and both must
   drain to the same tail. *)
let prop_calendar_matches_heap =
  QCheck.Test.make ~name:"calendar queue matches heap oracle" ~count:300
    QCheck.(list (pair (int_bound 9) (int_bound 6)))
    (fun ops ->
      let q = Q.create () and h = Heap.create () in
      let seq = ref 0 and floor = ref 0.0 and ok = ref true in
      let pop_both () =
        let a = Q.pop q and b = Heap.pop h in
        (match a with Some (k, _) -> floor := k | None -> ());
        if a <> b then ok := false
      in
      List.iter
        (fun (op, delta) ->
          if op < 7 then begin
            (* the engine's invariant: keys never go below the last
               extracted minimum *)
            let key = !floor +. (0.5 *. float_of_int delta) in
            incr seq;
            Q.add q ~key !seq;
            Heap.add h ~key !seq
          end
          else pop_both ())
        ops;
      while (not (Q.is_empty q)) || not (Heap.is_empty h) do
        pop_both ()
      done;
      !ok && Q.length q = Heap.length h)

(* Event times sit next to each other: besides order and inverse on
   arbitrary pairs, a key and its float successor must map to
   distinct, ordered images, so no two distinct times tie. *)
let prop_image_order_isomorphic =
  QCheck.Test.make ~name:"image is order-preserving and invertible" ~count:300
    QCheck.(pair (float_bound_exclusive 1e9) (float_bound_exclusive 1e9))
    (fun (a, b) ->
      let a = Float.abs a and b = Float.abs b in
      Q.key_of_image (Q.image a) = a
      && Q.key_of_image (Q.image b) = b
      && compare (Q.image a) (Q.image b) = compare a b
      && Q.image a < Q.image (Float.succ a))

let expect_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (msg ^ ": expected Invalid_argument")

let test_calendar_rejects_bad_keys () =
  let q = Q.create () in
  expect_invalid "negative key" (fun () -> Q.add q ~key:(-1.0) 0);
  expect_invalid "nan key" (fun () -> Q.add q ~key:Float.nan 0);
  checki "rejected adds left nothing" 0 (Q.length q)

let test_calendar_below_floor_detected () =
  (* The monotonicity floor trails lazily, advancing when a bucket is
     redistributed. Force one deterministically: more than the scan
     threshold of entries in one far bucket makes the next locate
     redistribute and pull the floor up to the popped minimum, after
     which an add below it must raise. *)
  let q = Q.create () in
  for i = 1 to 32 do
    Q.add q ~key:100.0 i
  done;
  (match Q.pop q with
  | Some (100.0, 1) -> ()
  | _ -> Alcotest.fail "expected FIFO minimum (100.0, 1)");
  expect_invalid "add below advanced floor" (fun () -> Q.add q ~key:50.0 0)

let test_calendar_empty_queue () =
  let q = Q.create () in
  checkb "is_empty" true (Q.is_empty q);
  checki "min_image of empty is max_int" max_int (Q.min_image q);
  expect_invalid "pop_min on empty" (fun () -> Q.pop_min q);
  checkb "pop on empty" true (Q.pop q = None)

let test_calendar_clear_resets_floor () =
  let q = Q.create () in
  for i = 1 to 32 do
    Q.add q ~key:100.0 i
  done;
  ignore (Q.pop q);
  Q.clear q;
  checki "cleared" 0 (Q.length q);
  (* the floor is back at 0: a key below the old floor is accepted *)
  Q.add q ~key:0.0 7;
  checkb "usable after clear" true (Q.pop q = Some (0.0, 7))

(* ---------------- engine error paths ---------------- *)

let test_engine_rejects_past_and_bad_args () =
  let e = Engine.create () in
  Engine.schedule e ~delay:2.0 (fun () -> ());
  Engine.run e;
  checkf "clock" 2.0 (Engine.now e);
  Alcotest.check_raises "schedule_at in the past"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:1.0 (fun () -> ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-0.5) (fun () -> ()));
  Alcotest.check_raises "non-positive interval"
    (Invalid_argument "Engine.every: non-positive interval") (fun () ->
      Engine.every e ~interval:0.0 (fun () -> ()));
  let d = Engine.dispatch (fun _ _ _ _ _ -> ()) in
  Alcotest.check_raises "schedule_fast in the past"
    (Invalid_argument "Engine.schedule_fast: time in the past") (fun () ->
      Engine.schedule_fast e ~time:1.0 d 0 0 0 0 0);
  checki "nothing slipped into the queue" 0 (Engine.pending e)

(* ---------------- until-window edges ---------------- *)

let test_engine_until_keeps_window_schedulable () =
  (* Regression: the window's last look at the queue — the first event
     past [until] — must not advance the queue's floor, so a later
     schedule between [until] and that event stays legal. With more
     than the scan threshold of events in that event's bucket, the
     peek used to redistribute and the schedule below raised. *)
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 20 do
    Engine.schedule_at e ~time:100.0 (fun () -> log := i :: !log)
  done;
  Engine.run ~until:50.0 e;
  Engine.schedule_at e ~time:60.0 (fun () -> log := 0 :: !log);
  Engine.run e;
  Alcotest.check
    Alcotest.(list int)
    "earlier event first, then the batch in FIFO order"
    (List.init 21 Fun.id) (List.rev !log)

let test_engine_until_boundary_inclusive () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := `At :: !log);
  Engine.schedule e ~delay:2.0000001 (fun () -> log := `After :: !log);
  Engine.run ~until:2.0 e;
  checkb "event exactly at the horizon ran" true (!log = [ `At ]);
  checki "event just past it pends" 1 (Engine.pending e);
  checkf "clock parked at until" 2.0 (Engine.now e)

let test_engine_until_in_the_past_is_noop () =
  let e = Engine.create () in
  Engine.schedule e ~delay:3.0 (fun () -> ());
  Engine.run e;
  Engine.schedule_at e ~time:5.0 (fun () -> ());
  Engine.run ~until:1.0 e;
  checkf "clock never rewinds" 3.0 (Engine.now e);
  checki "future event untouched" 1 (Engine.pending e)

(* ---------------- periodic task: O(1) live records ---------------- *)

let test_every_constant_live_records () =
  (* One [every] task fires N times off a single event record that
     re-enqueues itself; with nothing else scheduled, the queue never
     holds more than that one record, so the high-water mark pins the
     O(1) claim structurally — the old recursive-closure engine also
     kept one pending event, but allocated a fresh closure per tick. *)
  let e = Engine.create () in
  let n = 10_000 in
  let ticks = ref 0 in
  Engine.every e ~interval:1.0 ~until:(float_of_int n) (fun () -> incr ticks);
  Engine.run e;
  checki "every tick fired" n !ticks;
  checki "all counted as executed" n (Engine.events_executed e);
  checki "one live event record throughout" 1 (Engine.heap_high_water e)

let test_every_reenqueues_after_body () =
  (* The tick record goes back on the queue after its body ran, so an
     event the body scheduled for the very next firing instant was
     inserted first and pops first — the FIFO order the old recursive
     closure produced. *)
  let e = Engine.create () in
  let log = ref [] in
  let n = ref 0 in
  Engine.every e ~interval:1.0 ~until:2.0 (fun () ->
      incr n;
      let i = !n in
      log := `Tick i :: !log;
      if i = 1 then Engine.schedule e ~delay:1.0 (fun () -> log := `Probe :: !log));
  Engine.run e;
  checkb "probe pops before the tied second tick" true
    (List.rev !log = [ `Tick 1; `Probe; `Tick 2 ])

(* ---------------- the fast path allocates only floats ------------- *)

let test_fast_path_allocation () =
  (* 10^5 self-rescheduling fast events from 100 sources, so the queue
     never drains. The slab and the handle queue store an event in
     arrays, so what is left per event is two boxed floats: the time
     handed to [schedule_fast] and the clock when it moves. An event
     record per event would add 8 words. *)
  let e = Engine.create () in
  let sources = 100 and depth = 1000 in
  let d = ref (Engine.dispatch (fun _ _ _ _ _ -> ())) in
  d :=
    Engine.dispatch (fun i rem _ _ _ ->
        if rem > 0 then
          Engine.schedule_fast e
            ~time:(Engine.now e +. (0.001 *. float_of_int (1 + ((i * 7) mod 13))))
            !d i (rem - 1) 0 0 0);
  let w0 = Gc.minor_words () in
  for i = 0 to sources - 1 do
    Engine.schedule_fast e ~time:0.0 !d i (depth - 1) 0 0 0
  done;
  Engine.run e;
  let words = Gc.minor_words () -. w0 in
  let events = Engine.events_executed e in
  checki "every event ran" (sources * depth) events;
  let per_event = words /. float_of_int events in
  checkb
    (Printf.sprintf "%.2f minor words per event, at most 5" per_event)
    true (per_event <= 5.0)

(* ---------------- transmit hooks fire in registration order ------- *)

let test_on_transmit_hook_order () =
  let bld = G.Builder.create 2 in
  G.Builder.add_link bld 0 1 ~delay:1.0 ~cost:1.0;
  let g = G.Builder.freeze bld in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify:(fun _ -> `Data) in
  let log = ref [] in
  Netsim.on_transmit net (fun ~src:_ ~dst:_ _ -> log := 1 :: !log);
  Netsim.on_transmit net (fun ~src:_ ~dst:_ _ -> log := 2 :: !log);
  Netsim.on_transmit net (fun ~src:_ ~dst:_ _ -> log := 3 :: !log);
  Netsim.set_handler net 1 (fun _ ~from:_ _ -> ());
  Netsim.transmit net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.check
    Alcotest.(list int)
    "hooks fire in registration order" [ 1; 2; 3 ] (List.rev !log)


let () =
  Alcotest.run "engine"
    [
      ( "calendar-queue",
        [
          Alcotest.test_case "rejects bad keys" `Quick test_calendar_rejects_bad_keys;
          Alcotest.test_case "below-floor add detected" `Quick
            test_calendar_below_floor_detected;
          Alcotest.test_case "empty queue" `Quick test_calendar_empty_queue;
          Alcotest.test_case "clear resets floor" `Quick
            test_calendar_clear_resets_floor;
          QCheck_alcotest.to_alcotest prop_calendar_matches_heap;
          QCheck_alcotest.to_alcotest prop_image_order_isomorphic;
        ] );
      ( "engine",
        [
          Alcotest.test_case "rejects past times and bad args" `Quick
            test_engine_rejects_past_and_bad_args;
          Alcotest.test_case "until boundary inclusive" `Quick
            test_engine_until_boundary_inclusive;
          Alcotest.test_case "until in the past is a no-op" `Quick
            test_engine_until_in_the_past_is_noop;
          Alcotest.test_case "until keeps the window schedulable" `Quick
            test_engine_until_keeps_window_schedulable;
          Alcotest.test_case "every keeps O(1) live records" `Quick
            test_every_constant_live_records;
          Alcotest.test_case "tick re-enqueue preserves FIFO" `Quick
            test_every_reenqueues_after_body;
          Alcotest.test_case "on_transmit hook order" `Quick
            test_on_transmit_hook_order;
          Alcotest.test_case "fast path allocates at most 5 words per event"
            `Quick test_fast_path_allocation;
        ] );
    ]
