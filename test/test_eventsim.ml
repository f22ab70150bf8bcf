(* Tests for the discrete-event engine, unicast route tables and the
   packet-level network simulation. *)

module Engine = Eventsim.Engine
module Routes = Eventsim.Routes
module Netsim = Eventsim.Netsim
module G = Netgraph.Graph

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ---------------- Engine ---------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.run e;
  Alcotest.check Alcotest.(list string) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  checkf "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.check Alcotest.(list int) "FIFO at equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:0.5 (fun () -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.check Alcotest.(list string) "nested events run" [ "outer"; "inner" ]
    (List.rev !log);
  checkf "clock" 1.5 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  List.iter (fun d -> Engine.schedule e ~delay:d (fun () -> incr count)) [ 1.0; 2.0; 3.0 ];
  Engine.run ~until:2.5 e;
  checki "two executed" 2 !count;
  checkf "clock parked at until" 2.5 (Engine.now e);
  checki "one pending" 1 (Engine.pending e);
  Engine.run e;
  checki "rest executed" 3 !count

let test_engine_until_advances_idle_clock () =
  let e = Engine.create () in
  Engine.run ~until:10.0 e;
  checkf "clock advances without events" 10.0 (Engine.now e)

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~delay:5.0 (fun () ->
      Alcotest.check_raises "past event"
        (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
          Engine.schedule_at e ~time:1.0 ignore));
  Engine.run e;
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) ignore)

let test_engine_every () =
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.every e ~interval:1.0 ~until:5.0 (fun () -> incr ticks);
  Engine.run e;
  checki "5 ticks in [1..5]" 5 !ticks

let test_engine_every_first_tick_past_until () =
  (* Regression: the [until] window must gate the first firing too — a
     periodic task whose first tick would land after the horizon used to
     fire exactly once. *)
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.every e ~interval:2.0 ~until:1.0 (fun () -> incr ticks);
  checki "nothing enqueued" 0 (Engine.pending e);
  Engine.run ~until:10.0 e;
  checki "never fires" 0 !ticks;
  (* boundary: a first tick landing exactly on [until] still fires *)
  let e2 = Engine.create () in
  let ticks2 = ref 0 in
  Engine.every e2 ~interval:2.0 ~until:2.0 (fun () -> incr ticks2);
  Engine.run ~until:10.0 e2;
  checki "inclusive boundary fires once" 1 !ticks2

let test_engine_background_does_not_block () =
  let e = Engine.create () in
  let ticks = ref 0 and fg = ref 0 in
  Engine.every e ~interval:1.0 ~background:true (fun () -> incr ticks);
  Engine.schedule e ~delay:2.5 (fun () -> incr fg);
  Engine.run e;
  checki "foreground ran" 1 !fg;
  checki "background ran while foreground pending" 2 !ticks;
  checkb "background still queued" true (Engine.pending e > 0);
  checki "no foreground left" 0 (Engine.pending_foreground e);
  (* an explicit window executes background events *)
  Engine.run ~until:5.5 e;
  checki "window ran background" 5 !ticks

let test_engine_step () =
  let e = Engine.create () in
  checkb "step on empty" false (Engine.step e);
  Engine.schedule e ~delay:1.0 ignore;
  checkb "step executes" true (Engine.step e);
  checkb "then empty" false (Engine.step e)

(* ---------------- Routes ---------------- *)

let test_routes_lazy_memoization () =
  let spec = Topology.Waxman.generate ~seed:9 ~n:40 () in
  let g = spec.Topology.Spec.graph in
  let r = Routes.compute g in
  checki "no SPT built up front" 0 (Routes.computed r);
  ignore (Routes.path r ~src:3 ~dst:30);
  ignore (Routes.distance r ~src:3 ~dst:7);
  ignore (Routes.next_hop r ~src:3 ~dst:11);
  checki "one source, one build" 1 (Routes.computed r);
  ignore (Routes.distance r ~src:8 ~dst:3);
  checki "second source forces a second" 2 (Routes.computed r);
  checki "two cached" 2 (Routes.cached r);
  checki "nothing invalidated" 0 (Routes.invalidated r)

let line_graph () =
  (* 0 -(1)- 1 -(1)- 2 -(5)- 3 and shortcut 0 -(2.5)- 2 *)
    let bld = G.Builder.create 4 in
  G.Builder.add_link bld 0 1 ~delay:1.0 ~cost:1.0;
  G.Builder.add_link bld 1 2 ~delay:1.0 ~cost:1.0;
  G.Builder.add_link bld 2 3 ~delay:5.0 ~cost:1.0;
  G.Builder.add_link bld 0 2 ~delay:2.5 ~cost:10.0;
  let g = G.Builder.freeze bld in
  g

let test_routes_next_hop () =
  let g = line_graph () in
  let r = Routes.compute g in
  Alcotest.check Alcotest.(option int) "0->3 via 1" (Some 1) (Routes.next_hop r ~src:0 ~dst:3);
  Alcotest.check Alcotest.(option int) "1->0 direct" (Some 0) (Routes.next_hop r ~src:1 ~dst:0);
  Alcotest.check Alcotest.(option int) "self" None (Routes.next_hop r ~src:2 ~dst:2);
  checkf "distance 0->3" 7.0 (Routes.distance r ~src:0 ~dst:3);
  Alcotest.check Alcotest.(option (list int)) "path" (Some [ 0; 1; 2; 3 ])
    (Routes.path r ~src:0 ~dst:3)

let test_routes_consistency () =
  (* following next hops from any node reaches the destination *)
  let spec = Topology.Waxman.generate ~seed:9 ~n:40 () in
  let g = spec.Topology.Spec.graph in
  let r = Routes.compute g in
  for src = 0 to 39 do
    let dst = (src + 17) mod 40 in
    if src <> dst then begin
      let rec follow x steps =
        if steps > 40 then Alcotest.fail "routing loop"
        else if x = dst then ()
        else
          match Routes.next_hop r ~src:x ~dst with
          | Some y -> follow y (steps + 1)
          | None -> Alcotest.fail "route vanished mid-path"
      in
      follow src 0
    end
  done

(* ---------------- Netsim ---------------- *)

type msg = Ping of int | Bulk of int

let classify = function Ping _ -> `Control | Bulk _ -> `Data

let test_netsim_transmit () =
  let g = line_graph () in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify in
  let got = ref [] in
  Netsim.set_handler net 1 (fun _ ~from m ->
      got := (from, m, Engine.now e) :: !got);
  Netsim.transmit net ~src:0 ~dst:1 (Ping 1);
  Engine.run e;
  (match !got with
  | [ (from, Ping 1, at) ] ->
    checki "from" 0 from;
    checkf "arrives after link delay" 1.0 at
  | _ -> Alcotest.fail "expected exactly one delivery");
  checkf "control overhead = link cost" 1.0 (Netsim.control_overhead net);
  checkf "no data overhead" 0.0 (Netsim.data_overhead net);
  checki "one control crossing" 1 (Netsim.control_transmissions net);
  Alcotest.check_raises "non-adjacent transmit"
    (Invalid_argument "Netsim.transmit: nodes are not adjacent") (fun () ->
      Netsim.transmit net ~src:0 ~dst:3 (Ping 2))

let test_netsim_unicast () =
  let g = line_graph () in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify in
  let got = ref [] in
  (* only the destination sees a unicast packet *)
  for x = 0 to 3 do
    Netsim.set_handler net x (fun _ ~from m -> got := (x, from, m) :: !got)
  done;
  Netsim.unicast net ~src:0 ~dst:3 (Bulk 7);
  Engine.run e;
  (match !got with
  | [ (3, 0, Bulk 7) ] -> ()
  | _ -> Alcotest.fail "expected delivery only at node 3 from 0");
  checkf "arrival at path delay" 7.0 (Engine.now e);
  checkf "data overhead = path cost" 3.0 (Netsim.data_overhead net);
  checki "three crossings" 3 (Netsim.data_transmissions net)

let test_netsim_unicast_self () =
  let g = line_graph () in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify in
  let got = ref 0 in
  Netsim.set_handler net 2 (fun _ ~from:_ _ -> incr got);
  Netsim.unicast net ~src:2 ~dst:2 (Ping 0);
  Engine.run e;
  checki "local delivery" 1 !got;
  checkf "free of charge" 0.0 (Netsim.control_overhead net)

let test_netsim_per_link_and_hooks () =
  let g = line_graph () in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify in
  let hook_count = ref 0 in
  Netsim.on_transmit net (fun ~src:_ ~dst:_ _ -> incr hook_count);
  Netsim.set_handler net 2 (fun _ ~from:_ _ -> ());
  Netsim.unicast net ~src:0 ~dst:2 (Bulk 1);
  (* shortest-delay route 0-1-2 (delay 2) beats direct link (2.5) *)
  Engine.run e;
  checki "0-1 crossed" 1 (Netsim.link_crossings net (0, 1));
  checki "1-2 crossed" 1 (Netsim.link_crossings net (1, 2));
  checki "direct link unused" 0 (Netsim.link_crossings net (0, 2));
  checki "hook saw both hops" 2 !hook_count

let test_netsim_no_handler_drops () =
  let g = line_graph () in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify in
  Netsim.transmit net ~src:0 ~dst:1 (Ping 1);
  Engine.run e;
  (* nothing crashes; overhead still accounted *)
  checkf "charged anyway" 1.0 (Netsim.control_overhead net)

let test_netsim_loss_injection () =
  let g = line_graph () in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify in
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Netsim.set_loss: rate must be in [0, 1)") (fun () ->
      Netsim.set_loss net ~rate:1.0 ~seed:1);
  let got = ref 0 in
  Netsim.set_handler net 1 (fun _ ~from:_ _ -> incr got);
  (* rate 0 = lossless *)
  Netsim.set_loss net ~rate:0.0 ~seed:1;
  for _ = 1 to 20 do
    Netsim.transmit net ~src:0 ~dst:1 (Ping 0)
  done;
  Engine.run e;
  checki "lossless delivers all" 20 !got;
  checki "nothing dropped" 0 (Netsim.dropped net);
  (* heavy loss kills a large fraction, every crossing still charged *)
  Netsim.set_loss net ~rate:0.5 ~seed:42;
  let before = Netsim.control_transmissions net in
  got := 0;
  for _ = 1 to 200 do
    Netsim.transmit net ~src:0 ~dst:1 (Ping 0)
  done;
  Engine.run e;
  checki "all crossings charged" 200 (Netsim.control_transmissions net - before);
  checki "received + dropped = sent" 200 (!got + Netsim.dropped net);
  checkb "substantial loss" true (Netsim.dropped net > 50 && Netsim.dropped net < 150)

let test_netsim_unicast_loss_partial_charge () =
  let g = line_graph () in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify in
  (* certain-ish loss: the multi-hop unicast dies early and cannot be
     charged for links it never reached *)
  Netsim.set_loss net ~rate:0.9 ~seed:7;
  let got = ref 0 in
  Netsim.set_handler net 3 (fun _ ~from:_ _ -> incr got);
  for _ = 1 to 50 do
    Netsim.unicast net ~src:0 ~dst:3 (Bulk 0)
  done;
  Engine.run e;
  (* 50 packets x 3 hops = 150 crossings max; deaths cut that short *)
  checkb "fewer crossings than lossless" true (Netsim.data_transmissions net < 150);
  checkb "almost nothing arrives" true (!got < 10)

(* ---------------- Trace ---------------- *)

module Trace = Eventsim.Trace

let test_trace_records_crossings () =
  let g = line_graph () in
  let e = Engine.create () in
  let net = Netsim.create e g ~classify in
  let tr =
    Trace.attach net ~describe:(function Ping i -> Printf.sprintf "ping#%d" i
                                       | Bulk i -> Printf.sprintf "bulk#%d" i)
  in
  Netsim.set_handler net 3 (fun _ ~from:_ _ -> ());
  Netsim.unicast net ~src:0 ~dst:3 (Bulk 5);
  Netsim.transmit net ~src:0 ~dst:1 (Ping 1);
  Engine.run e;
  checki "four crossings traced" 4 (Trace.line_count tr);
  (match Trace.lines tr with
  | first :: _ ->
    checkb "line mentions src/dst and class" true
      (first = "0.000000 0 1 D bulk#5")
  | [] -> Alcotest.fail "no lines");
  checkb "control tagged C" true
    (List.exists (fun l -> String.ends_with ~suffix:"C ping#1" l) (Trace.lines tr));
  (* save + clear *)
  let path = Filename.temp_file "scmp" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Trace.save tr ~path with
      | Ok () -> ()
      | Error err -> Alcotest.failf "save: %s" err);
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> close_in ic);
      checki "file lines" 4 !n);
  Trace.clear tr;
  checki "cleared" 0 (Trace.line_count tr)

(* ---------------- Server ---------------- *)

module Server = Eventsim.Server

let test_server_single () =
  let e = Engine.create () in
  let s = Server.create e ~servers:1 in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Server.submit s ~service_time:2.0 (fun () -> done_at := Engine.now e :: !done_at)
  done;
  checki "one in service" 1 (Server.busy s);
  checki "two queued" 2 (Server.queue_length s);
  Engine.run e;
  (* strictly sequential: completions at 2, 4, 6 *)
  Alcotest.check
    Alcotest.(list (float 1e-9))
    "FIFO sequential" [ 2.0; 4.0; 6.0 ] (List.rev !done_at);
  checki "all completed" 3 (Server.completed s);
  (* waits: 0 + 2 + 4 *)
  Alcotest.check (Alcotest.float 1e-9) "total wait" 6.0 (Server.total_queueing_delay s);
  checki "high-water mark" 2 (Server.max_queue_length s)

let test_server_parallel () =
  let e = Engine.create () in
  let s = Server.create e ~servers:3 in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Server.submit s ~service_time:5.0 (fun () -> done_at := Engine.now e :: !done_at)
  done;
  checki "all in service" 3 (Server.busy s);
  Engine.run e;
  Alcotest.check
    Alcotest.(list (float 1e-9))
    "parallel completion" [ 5.0; 5.0; 5.0 ] !done_at;
  Alcotest.check (Alcotest.float 1e-9) "no queueing" 0.0 (Server.total_queueing_delay s)

let test_server_errors () =
  let e = Engine.create () in
  Alcotest.check_raises "zero servers"
    (Invalid_argument "Server.create: need at least one server") (fun () ->
      ignore (Server.create e ~servers:0));
  let s = Server.create e ~servers:1 in
  Alcotest.check_raises "negative service"
    (Invalid_argument "Server.submit: negative service time") (fun () ->
      Server.submit s ~service_time:(-1.0) ignore)

let test_server_observability () =
  let e = Engine.create () in
  let s = Server.create e ~servers:1 in
  let m = Obs.Metrics.create () in
  for _ = 1 to 3 do
    Server.submit s ~service_time:2.0 ignore
  done;
  Engine.run e;
  Server.observe s m ~prefix:"srv";
  checki "completed published" 3
    (Obs.Metrics.counter_value (Obs.Metrics.counter m "srv/completed"));
  checki "max queue published" 2
    (Obs.Metrics.counter_value (Obs.Metrics.counter m "srv/max_queue"));
  Alcotest.check (Alcotest.float 1e-9) "total wait published" 6.0
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge m "srv/total_wait_s"))

let test_server_freed_picks_next () =
  let e = Engine.create () in
  let s = Server.create e ~servers:2 in
  let log = ref [] in
  List.iteri
    (fun i st ->
      Server.submit s ~service_time:st (fun () -> log := (i, Engine.now e) :: !log))
    [ 1.0; 3.0; 1.0 ];
  Engine.run e;
  (* job 0 ends at 1, freeing a server for job 2 (ends 2); job 1 ends at 3 *)
  Alcotest.check
    Alcotest.(list (pair int (float 1e-9)))
    "interleaving" [ (0, 1.0); (2, 2.0); (1, 3.0) ] (List.rev !log)

let () =
  Alcotest.run "eventsim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "until idle" `Quick test_engine_until_advances_idle_clock;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "every first tick past until" `Quick
            test_engine_every_first_tick_past_until;
          Alcotest.test_case "background" `Quick test_engine_background_does_not_block;
          Alcotest.test_case "step" `Quick test_engine_step;
        ] );
      ( "routes",
        [
          Alcotest.test_case "next hop" `Quick test_routes_next_hop;
          Alcotest.test_case "hop-by-hop consistency" `Quick test_routes_consistency;
          Alcotest.test_case "lazy memoization" `Quick test_routes_lazy_memoization;
        ] );
      ( "trace",
        [ Alcotest.test_case "records crossings" `Quick test_trace_records_crossings ] );
      ( "server",
        [
          Alcotest.test_case "single FIFO" `Quick test_server_single;
          Alcotest.test_case "parallel" `Quick test_server_parallel;
          Alcotest.test_case "errors" `Quick test_server_errors;
          Alcotest.test_case "freed server picks next" `Quick test_server_freed_picks_next;
          Alcotest.test_case "observability hooks" `Quick test_server_observability;
        ] );
      ( "netsim",
        [
          Alcotest.test_case "transmit" `Quick test_netsim_transmit;
          Alcotest.test_case "unicast" `Quick test_netsim_unicast;
          Alcotest.test_case "unicast self" `Quick test_netsim_unicast_self;
          Alcotest.test_case "links and hooks" `Quick test_netsim_per_link_and_hooks;
          Alcotest.test_case "no handler" `Quick test_netsim_no_handler_drops;
          Alcotest.test_case "loss injection" `Quick test_netsim_loss_injection;
          Alcotest.test_case "unicast partial charge" `Quick
            test_netsim_unicast_loss_partial_charge;
        ] );
    ]
