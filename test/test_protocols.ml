(* Tests for the protocol agents: TREE packets, IGMP, SCMP, CBT, DVMRP,
   MOSPF and the scenario runner. *)

module G = Netgraph.Graph
module Engine = Eventsim.Engine
module Netsim = Eventsim.Netsim
module TP = Protocols.Tree_packet
module Message = Protocols.Message
module Delivery = Protocols.Delivery
module Igmp = Protocols.Igmp
module Scmp_proto = Protocols.Scmp_proto
module Cbt = Protocols.Cbt
module Dvmrp = Protocols.Dvmrp
module Mospf = Protocols.Mospf
module Hpim_dm = Protocols.Hpim_dm
module Runner = Protocols.Runner
module Prng = Scmp_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let fig5_scaled scale =
  let bld = G.Builder.create 6 in
  List.iter
    (fun (u, v, delay, cost) ->
      G.Builder.add_link bld u v ~delay:(delay *. scale) ~cost)
    [
      (0, 1, 3.0, 6.0);
      (0, 2, 2.0, 6.0);
      (0, 3, 4.0, 5.0);
      (1, 2, 3.0, 3.0);
      (1, 4, 9.0, 3.0);
      (2, 3, 3.0, 2.0);
      (3, 5, 7.0, 2.0);
      (2, 5, 9.0, 3.0);
    ];
  G.Builder.freeze bld

let fig5 () = fig5_scaled 1.0

(* Delays in simulated milliseconds, so protocol timers (DVMRP's 10 s
   prune lifetime) dominate link latency, as in the runner. *)
let fig5_ms () = fig5_scaled 1e-3

(* ---------------- Tree_packet ---------------- *)

let leaf = { TP.children = [] }

let test_tree_packet_paper_example () =
  (* §III.E's worked example: the m-router's subtree at node 2 with
     children 4 (leaf), 5 (children 7, 8) and 6 (child 9) encodes as
     (3; 4,1,0; 5,7,(2,7,1,0,8,1,0); 6,4,(1,9,1,0)). *)
  let t =
    {
      TP.children =
        [
          (4, leaf);
          (5, { TP.children = [ (7, leaf); (8, leaf) ] });
          (6, { TP.children = [ (9, leaf) ] });
        ];
    }
  in
  Alcotest.check
    Alcotest.(list int)
    "paper wire format"
    [ 3; 4; 1; 0; 5; 7; 2; 7; 1; 0; 8; 1; 0; 6; 4; 1; 9; 1; 0 ]
    (TP.encode t);
  checki "size" 19 (TP.size t);
  (match TP.decode (TP.encode t) with
  | Ok t' -> checkb "roundtrip" true (t = t')
  | Error e -> Alcotest.failf "decode: %s" e);
  Alcotest.check
    Alcotest.(list int)
    "spanned nodes" [ 2; 4; 5; 7; 8; 6; 9 ] (TP.nodes t ~at:2)

let test_tree_packet_leaf () =
  Alcotest.check Alcotest.(list int) "leaf encodes [0]" [ 0 ] (TP.encode leaf);
  checki "leaf size" 1 (TP.size leaf)

let test_tree_packet_of_tree () =
  let g = fig5 () in
  let t = Mtree.Tree.create g ~root:0 in
  Mtree.Tree.attach t ~parent:0 1;
  Mtree.Tree.attach t ~parent:1 2;
  Mtree.Tree.attach t ~parent:1 4;
  let p = TP.of_tree t ~at:1 in
  Alcotest.check Alcotest.(list int) "subtree at 1" [ 1; 2; 4 ] (TP.nodes p ~at:1);
  checki "two children" 2 (List.length (TP.split p));
  Alcotest.check_raises "off-tree node"
    (Invalid_argument "Tree_packet.of_tree: node is not on the tree") (fun () ->
      ignore (TP.of_tree t ~at:5))

let test_tree_packet_decode_errors () =
  let bad words msg =
    match TP.decode words with
    | Ok _ -> Alcotest.failf "expected decode failure for %s" msg
    | Error _ -> ()
  in
  bad [] "empty";
  bad [ 1 ] "missing child header";
  bad [ 1; 4 ] "missing length";
  bad [ 1; 4; 5; 0 ] "truncated body";
  bad [ -1 ] "negative count";
  bad [ 1; 4; -2; 0 ] "negative length";
  bad [ 0; 99 ] "trailing garbage";
  bad [ 1; 4; 2; 0; 0 ] "overshooting length"

let gen_packet =
  let rec make depth rng =
    if depth = 0 then leaf
    else begin
      let n = Prng.int rng 3 in
      let children =
        List.init n (fun i -> (Prng.int rng 90 + (i * 100), make (depth - 1) rng))
      in
      { TP.children }
    end
  in
  QCheck.Gen.map
    (fun seed -> make 4 (Prng.create seed))
    QCheck.Gen.small_int

let prop_tree_packet_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:200
    (QCheck.make gen_packet)
    (fun t -> TP.decode (TP.encode t) = Ok t)

let prop_tree_packet_size =
  QCheck.Test.make ~name:"size = length of the encoding" ~count:200
    (QCheck.make gen_packet)
    (fun t -> TP.size t = List.length (TP.encode t))

(* The quadratic decoder [decode] replaced, kept as its oracle: each
   child measured its tail and split off its body with two filters. *)
let reference_decode words =
  let rec parse = function
    | [] -> Error "truncated packet: missing child count"
    | count :: rest ->
      if count < 0 then Error "negative child count"
      else begin
        let rec children k ws acc =
          if k = 0 then Ok (List.rev acc, ws)
          else
            match ws with
            | addr :: len :: tail ->
              if len < 0 then Error "negative sub-packet length"
              else if List.length tail < len then Error "truncated sub-packet"
              else begin
                let body = List.filteri (fun i _ -> i < len) tail in
                let remainder = List.filteri (fun i _ -> i >= len) tail in
                match parse body with
                | Error _ as e -> e
                | Ok (sub, leftover) ->
                  if leftover <> [] then Error "sub-packet length overshoots its body"
                  else children (k - 1) remainder ((addr, sub) :: acc)
              end
            | _ -> Error "truncated packet: missing child header"
        in
        match children count rest [] with
        | Error _ as e -> e
        | Ok (children, leftover) -> Ok ({ TP.children }, leftover)
      end
  in
  match parse words with
  | Error _ as e -> e
  | Ok (t, []) -> Ok t
  | Ok (_, _ :: _) -> Error "trailing words after packet"

(* An encoding cut short, with one word changed, one inserted or one
   deleted: counts and lengths that lie about what follows. *)
let gen_damaged_words =
  QCheck.Gen.map
    (fun (t, seed) ->
      let words = Array.of_list (TP.encode t) in
      let n = Array.length words in
      let rng = Prng.create seed in
      let at = Prng.int rng (n + 1) in
      let word () = Prng.int rng 24 - 4 in
      let sub a i k = Array.to_list (Array.sub a i k) in
      match Prng.int rng 4 with
      | 0 -> sub words 0 at
      | 1 when at < n ->
        words.(at) <- word ();
        Array.to_list words
      | 1 | 2 -> sub words 0 at @ (word () :: sub words at (n - at))
      | _ -> if at < n then sub words 0 at @ sub words (at + 1) (n - at - 1) else [])
    QCheck.Gen.(pair gen_packet small_int)

let prop_tree_packet_decode_damaged =
  QCheck.Test.make ~name:"decode of a damaged encoding never raises, agrees with the oracle"
    ~count:1000
    (QCheck.make ~print:QCheck.Print.(list int) gen_damaged_words)
    (fun words -> TP.decode words = reference_decode words)

(* ---------------- Delivery recorder ---------------- *)

let test_delivery_recorder () =
  let e = Engine.create () in
  let d = Delivery.create e in
  Delivery.expect d ~seq:0 ~members:[ 1; 2; 3 ] ~sent_at:0.0;
  Engine.schedule e ~delay:2.0 (fun () ->
      Delivery.record d ~seq:0 ~at_router:1;
      Delivery.record d ~seq:0 ~at_router:1 (* duplicate *);
      Delivery.record d ~seq:0 ~at_router:9 (* not a member *);
      Delivery.record d ~seq:7 ~at_router:1 (* unknown packet *));
  Engine.schedule e ~delay:5.0 (fun () -> Delivery.record d ~seq:0 ~at_router:2);
  Engine.run e;
  checki "deliveries" 2 (Delivery.deliveries d);
  checki "duplicates" 1 (Delivery.duplicates d);
  checki "spurious (non-member + unknown)" 2 (Delivery.spurious d);
  checki "missed (member 3)" 1 (Delivery.missed d);
  checkf "max delay" 5.0 (Delivery.max_delay d);
  checkf "mean delay" 3.5 (Delivery.mean_delay d);
  let kept = ref [] in
  Delivery.iter_delays d (fun x -> kept := x :: !kept);
  Alcotest.(check (list (float 1e-12)))
    "raw delays kept, iterated newest first" [ 2.0; 5.0 ] !kept

(* [record_once] ignores a router's repeat, member or not, where
   [record] counts every one. *)
let test_delivery_record_once () =
  let e = Engine.create () in
  let d = Delivery.create e in
  Delivery.expect d ~seq:0 ~members:[ 1; 2 ] ~sent_at:0.0;
  let counts () = (Delivery.deliveries d, Delivery.duplicates d, Delivery.spurious d) in
  let check msg expected = Alcotest.(check (triple int int int)) msg expected (counts ()) in
  let twice r =
    Delivery.record_once d ~seq:0 ~at_router:r;
    Delivery.record_once d ~seq:0 ~at_router:r
  in
  twice 1;
  check "member delivered once" (1, 0, 0);
  twice 9;
  check "non-member beyond the map counted once" (1, 0, 1);
  twice 0;
  check "non-member inside the map counted once" (1, 0, 2);
  Delivery.record d ~seq:0 ~at_router:1;
  Delivery.record d ~seq:0 ~at_router:9;
  check "record still counts every repeat" (1, 1, 3);
  twice 2;
  check "second member delivered once" (2, 1, 3);
  Delivery.record_once d ~seq:3 ~at_router:1;
  Delivery.record_once d ~seq:3 ~at_router:1;
  check "an undeclared seq counts every time" (2, 1, 5);
  Delivery.expect d ~seq:0 ~members:[ 2 ] ~sent_at:0.0;
  twice 9;
  check "re-declaring forgets the marks" (2, 1, 6)

let test_delivery_empty () =
  let e = Engine.create () in
  let d = Delivery.create e in
  checkf "no samples, zero max" 0.0 (Delivery.max_delay d);
  checki "nothing missed" 0 (Delivery.missed d)

(* ---------------- Igmp ---------------- *)

let test_igmp_callbacks () =
  let e = Engine.create () in
  let joins = ref [] and leaves = ref [] in
  let igmp =
    Igmp.create e ~router:3
      ~on_first_join:(fun gr -> joins := gr :: !joins)
      ~on_last_leave:(fun gr -> leaves := gr :: !leaves)
      ()
  in
  checki "router accessor" 3 (Igmp.router igmp);
  Igmp.host_join igmp ~host:1 ~group:9;
  Alcotest.check Alcotest.(list int) "first join fires" [ 9 ] !joins;
  Igmp.host_join igmp ~host:2 ~group:9;
  Alcotest.check Alcotest.(list int) "second join silent" [ 9 ] !joins;
  Alcotest.check Alcotest.(list int) "members" [ 1; 2 ] (Igmp.members igmp ~group:9);
  Igmp.host_leave igmp ~host:1 ~group:9;
  Engine.run e;
  Alcotest.check Alcotest.(list int) "not last: no leave" [] !leaves;
  Igmp.host_leave igmp ~host:2 ~group:9;
  Engine.run e;
  Alcotest.check Alcotest.(list int) "last leave fires" [ 9 ] !leaves;
  Alcotest.check Alcotest.(list int) "no groups" [] (Igmp.groups igmp)

let test_igmp_rejoin_during_wait () =
  let e = Engine.create () in
  let leaves = ref 0 in
  let igmp =
    Igmp.create e ~router:0
      ~on_first_join:(fun _ -> ())
      ~on_last_leave:(fun _ -> incr leaves)
      ()
  in
  Igmp.host_join igmp ~host:1 ~group:5;
  Igmp.host_leave igmp ~host:1 ~group:5;
  (* someone re-joins before the group-specific query times out (1 s) *)
  Engine.schedule e ~delay:0.5 (fun () -> Igmp.host_join igmp ~host:2 ~group:5);
  Engine.run e;
  checki "leave cancelled by re-join" 0 !leaves;
  Alcotest.check Alcotest.(list int) "member present" [ 2 ] (Igmp.members igmp ~group:5)

let test_igmp_queries () =
  let e = Engine.create () in
  let igmp =
    Igmp.create e ~router:0
      ~on_first_join:(fun _ -> ())
      ~on_last_leave:(fun _ -> ())
      ()
  in
  Igmp.host_join igmp ~host:1 ~group:1;
  Igmp.host_join igmp ~host:2 ~group:2;
  Engine.run ~until:380.0 e;
  (* 3 general query rounds, one per 125 s; one suppressed report per
     group each *)
  checki "queries" 3 (Igmp.queries_sent igmp);
  checki "reports: 2 unsolicited + 3 rounds x 2 groups" 8 (Igmp.reports_sent igmp)

(* (fig5 is shared by all the protocol scenarios below) *)

(* ---------------- helper: network harness ---------------- *)

let make_net g =
  let e = Engine.create () in
  let net = Netsim.create e g ~classify:Message.classify in
  let delivery = Delivery.create e in
  (e, net, delivery)

let expect_and_send e delivery ~seq ~members ~send =
  Delivery.expect delivery ~seq ~members ~sent_at:(Engine.now e);
  send ();
  Engine.run e

(* ---------------- Forwarding ---------------- *)

module Fwd = Protocols.Forwarding

(* The open-addressing entry table against a [Hashtbl] model. Routers
   0..99 and four groups over a table that starts at 64 slots force
   probe runs that wrap, deletions that shift entries back, and growth
   mid-sequence. *)
let prop_forwarding_table_model =
  QCheck.Test.make ~name:"entry table = Hashtbl model" ~count:300
    QCheck.(list (triple (int_bound 2) (int_bound 99) (int_bound 3)))
    (fun ops ->
      let tbl = Fwd.create () and model = Hashtbl.create 16 in
      let agree = ref true in
      List.iteri
        (fun i (op, x, g) ->
          let k = Fwd.pk x g in
          match op with
          | 0 ->
            let e = Fwd.fresh_entry ~member:false ~ep:i in
            Fwd.replace tbl k e;
            Hashtbl.replace model k i
          | 1 ->
            Fwd.remove tbl k;
            Hashtbl.remove model k
          | _ ->
            let got = Option.map (fun e -> e.Fwd.ep) (Fwd.find_opt tbl k) in
            if got <> Hashtbl.find_opt model k || Fwd.mem tbl k <> (got <> None)
            then agree := false)
        ops;
      let listed =
        Fwd.fold (fun k e acc -> (k, e.Fwd.ep) :: acc) tbl []
        |> List.sort compare
      in
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
      in
      !agree && listed = expected
      && List.for_all (fun (k, _) -> Fwd.pk (Fwd.pk_hi k) (Fwd.pk_lo k) = k) listed)

(* One step on a star around router 0: from upstream 1 it goes to the
   downstream list in order, never back to the sender; from a
   downstream router it goes upstream first; from outside the F set it
   is dropped; the result is the member flag. *)
let test_forwarding_step () =
  let bld = G.Builder.create 5 in
  List.iter (fun y -> G.Builder.add_link bld 0 y ~delay:1.0 ~cost:1.0) [ 1; 2; 3; 4 ];
  let e, net, _ = make_net (G.Builder.freeze bld) in
  let sent = ref [] in
  Netsim.on_transmit net (fun ~src ~dst _ -> sent := (src, dst) :: !sent);
  let tbl = Fwd.create () in
  let entry = Fwd.fresh_entry ~member:true ~ep:0 in
  entry.Fwd.upstream <- Some 1;
  entry.Fwd.downstream <- [ 3; 2 ];
  Fwd.replace tbl (Fwd.pk 0 7) entry;
  let msg = Message.Data { group = 7; src = 9; seq = 0 } in
  let step ~from =
    sent := [];
    let deliver = Fwd.step net tbl ~x:0 ~group:7 ~from msg in
    Engine.run e;
    (deliver, List.rev !sent)
  in
  let path = Alcotest.(pair bool (list (pair int int))) in
  Alcotest.check path "from upstream" (true, [ (0, 3); (0, 2) ]) (step ~from:1);
  Alcotest.check path "from downstream" (true, [ (0, 1); (0, 3) ]) (step ~from:2);
  Alcotest.check path "outside the F set" (false, []) (step ~from:4);
  Alcotest.check path "no entry for the group" (false, [])
    (sent := [];
     (Fwd.step net tbl ~x:0 ~group:8 ~from:1 msg, !sent));
  entry.Fwd.member <- false;
  Alcotest.check path "relay only" (false, [ (0, 3); (0, 2) ]) (step ~from:1)

(* The neighbour fan-out walks a router's links in the order they were
   added (the order of [G.neighbors]), skipping the arrival neighbour
   and whatever [keep] rejects; [any_neighbour] agrees with it. *)
let test_forwarding_fan_out () =
  let bld = G.Builder.create 5 in
  List.iter (fun y -> G.Builder.add_link bld 0 y ~delay:1.0 ~cost:1.0) [ 3; 1; 4; 2 ];
  let g = G.Builder.freeze bld in
  let e, net, _ = make_net g in
  let sent = ref [] in
  Netsim.on_transmit net (fun ~src ~dst _ -> sent := (src, dst) :: !sent);
  let msg = Message.Data { group = 7; src = 9; seq = 0 } in
  let outside excluded _slot y = not (List.mem y excluded) in
  let fan ~from excluded =
    sent := [];
    let n = Fwd.fan_out net ~x:0 ~from ~keep:outside excluded msg in
    Engine.run e;
    (n, List.rev !sent)
  in
  let path = Alcotest.(pair int (list (pair int int))) in
  Alcotest.check path "all, in link order"
    (4, List.map (fun y -> (0, y)) (G.neighbors g 0))
    (fan ~from:(-1) []);
  Alcotest.check path "less the arrival and the excluded" (2, [ (0, 3); (0, 2) ])
    (fan ~from:4 [ 1 ]);
  Alcotest.check path "nobody left" (0, []) (fan ~from:2 [ 1; 3; 4 ]);
  checkb "any: one left" true (Fwd.any_neighbour g ~x:0 ~from:4 ~keep:outside [ 1; 3 ]);
  checkb "any: none left" false
    (Fwd.any_neighbour g ~x:0 ~from:2 ~keep:outside [ 1; 3; 4 ])

(* ---------------- SCMP ---------------- *)

let test_scmp_join_builds_consistent_tree () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  checki "mrouter" 0 (Scmp_proto.mrouter p);
  List.iter
    (fun r ->
      Scmp_proto.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3; 5 ];
  (match Scmp_proto.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "inconsistent: %s" err);
  let tree = Option.get (Scmp_proto.mrouter_tree p ~group:1) in
  Alcotest.check Alcotest.(list int) "members" [ 3; 4; 5 ] (Mtree.Tree.members tree);
  (* i-router entries mirror the tree *)
  (match Scmp_proto.router_state p 1 ~group:1 with
  | Some (up, down, member) ->
    Alcotest.check Alcotest.(option int) "upstream of 1" (Some 0) up;
    Alcotest.check Alcotest.(list int) "downstream of 1" [ 4 ] down;
    checkb "1 is relay" false member
  | None -> Alcotest.fail "router 1 should hold an entry");
  checkb "off-tree router has no entry" true
    (Scmp_proto.router_state p 2 ~group:1 = None)

let test_scmp_data_delivery () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  List.iter
    (fun r ->
      Scmp_proto.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3; 5 ];
  (* member source: travels the bidirectional tree *)
  expect_and_send e delivery ~seq:0 ~members:[ 3; 5 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:4 ~seq:0);
  checki "deliveries" 2 (Delivery.deliveries delivery);
  checki "no dups" 0 (Delivery.duplicates delivery);
  checki "no missed" 0 (Delivery.missed delivery);
  (* off-tree source: encapsulated via the m-router *)
  expect_and_send e delivery ~seq:1 ~members:[ 3; 4; 5 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:2 ~seq:1);
  checki "deliveries incl. encap" 5 (Delivery.deliveries delivery);
  checki "still clean" 0 (Delivery.duplicates delivery + Delivery.spurious delivery)

let test_scmp_leave_prunes_network () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  List.iter
    (fun r ->
      Scmp_proto.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3; 5 ];
  Scmp_proto.host_leave p ~group:1 4;
  Engine.run e;
  (match Scmp_proto.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "inconsistent after leave: %s" err);
  checkb "4 dropped its entry" true (Scmp_proto.router_state p 4 ~group:1 = None);
  checkb "1 pruned too (relay with no children)" true
    (Scmp_proto.router_state p 1 ~group:1 = None);
  (* packets no longer reach the departed member *)
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:3 ~seq:0);
  checki "one delivery" 1 (Delivery.deliveries delivery);
  checki "none spurious" 0 (Delivery.spurious delivery)

let test_scmp_mrouter_member () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  Scmp_proto.host_join p ~group:1 0;
  Scmp_proto.host_join p ~group:1 4;
  Engine.run e;
  expect_and_send e delivery ~seq:0 ~members:[ 0 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:4 ~seq:0);
  checki "m-router's subnet delivered" 1 (Delivery.deliveries delivery)

(* The m-router's roster against the list it replaced: a join appends
   a router not yet present, a leave filters it out. Order and
   membership agree after every step. *)
let prop_roster_model =
  QCheck.Test.make ~name:"roster = join-ordered list model" ~count:300
    QCheck.(list (pair (int_bound 11) bool))
    (fun ops ->
      let r = Protocols.Roster.create 12 in
      let model = ref [] in
      List.for_all
        (fun (dr, joined) ->
          if joined then begin
            Protocols.Roster.add r dr;
            if not (List.mem dr !model) then model := !model @ [ dr ]
          end
          else begin
            Protocols.Roster.remove r dr;
            model := List.filter (fun m -> m <> dr) !model
          end;
          Protocols.Roster.to_list r = !model
          && List.for_all
               (fun x -> Protocols.Roster.mem r x = List.mem x !model)
               (List.init 14 (fun i -> i - 1)))
        ops)

let prop_scmp_churn_consistent =
  QCheck.Test.make ~name:"SCMP network state mirrors m-router tree under churn"
    ~count:10 QCheck.small_int (fun seed ->
      let spec = Topology.Waxman.generate ~seed:(seed + 1) ~n:40 () in
      let e, net, delivery = make_net spec.Topology.Spec.graph in
      let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
      let rng = Prng.create (seed * 17 + 3) in
      let present = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to 60 do
        let x = 1 + Prng.int rng 39 in
        if Hashtbl.mem present x then begin
          Hashtbl.remove present x;
          Scmp_proto.host_leave p ~group:1 x
        end
        else begin
          Hashtbl.replace present x ();
          Scmp_proto.host_join p ~group:1 x
        end;
        Engine.run e;
        if Scmp_proto.network_tree_consistent p ~group:1 <> Ok () then ok := false
      done;
      !ok)

let test_scmp_full_tree_distribution_equivalent () =
  (* The Always_full_tree ablation must produce the same converged
     network state as the incremental BRANCH scheme, just at a higher
     control cost. *)
  let converge distribution =
    let g = fig5 () in
    let e, net, delivery = make_net g in
    let p = Scmp_proto.create ~delivery ~distribution net ~mrouter:0 () in
    List.iter
      (fun r ->
        Scmp_proto.host_join p ~group:1 r;
        Engine.run e)
      [ 4; 3; 5 ];
    (p, Netsim.control_overhead net)
  in
  let p_incr, cost_incr = converge Scmp_proto.Incremental in
  let p_full, cost_full = converge Scmp_proto.Always_full_tree in
  (match Scmp_proto.network_tree_consistent p_full ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "full-tree mode inconsistent: %s" err);
  List.iter
    (fun x ->
      checkb
        (Printf.sprintf "router %d state agrees" x)
        true
        (Scmp_proto.router_state p_incr x ~group:1
        = Scmp_proto.router_state p_full x ~group:1))
    [ 0; 1; 2; 3; 4; 5 ];
  checkb "BRANCH scheme is cheaper" true (cost_incr < cost_full)

let test_scmp_two_groups_isolated () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  Scmp_proto.host_join p ~group:1 4;
  Scmp_proto.host_join p ~group:2 5;
  Engine.run e;
  (* group 1's packet must not reach group 2's member *)
  expect_and_send e delivery ~seq:0 ~members:[ 4 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:3 ~seq:0);
  checki "only group 1 member served" 1 (Delivery.deliveries delivery);
  checki "no cross-group leak" 0 (Delivery.spurious delivery);
  (match Scmp_proto.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "g1: %s" err);
  match Scmp_proto.network_tree_consistent p ~group:2 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "g2: %s" err

let test_scmp_relay_becomes_member () =
  (* A router serving as a relay joins the group itself: the tree is
     unchanged, only its member flag flips (§III.B). *)
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  Scmp_proto.host_join p ~group:1 4;
  Engine.run e;
  (* node 1 relays for 4 *)
  (match Scmp_proto.router_state p 1 ~group:1 with
  | Some (_, _, false) -> ()
  | _ -> Alcotest.fail "expected relay");
  let ctl_before = Netsim.control_overhead net in
  Scmp_proto.host_join p ~group:1 1;
  Engine.run e;
  (match Scmp_proto.router_state p 1 ~group:1 with
  | Some (Some 0, [ 4 ], true) -> ()
  | _ -> Alcotest.fail "relay should have become a member in place");
  (* only the JOIN accounting message crossed the network *)
  checkb "no tree traffic for in-place join" true
    (Netsim.control_overhead net -. ctl_before <= 12.0 +. 1e-9);
  expect_and_send e delivery ~seq:0 ~members:[ 1; 4 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:0 ~seq:0);
  checki "both served" 2 (Delivery.deliveries delivery)

(* ---------------- CBT ---------------- *)

let test_cbt_join_and_tree_shape () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Cbt.create ~delivery net ~core:0 () in
  Cbt.host_join p ~group:1 4;
  Engine.run e;
  (* JOIN travelled 4-1-0 (shortest delay to core); ACK installed
     state at 1 and 4 *)
  (match Cbt.router_state p 4 ~group:1 with
  | Some (Some up, _, true) -> checki "upstream of 4" 1 up
  | _ -> Alcotest.fail "4 should be a connected member");
  (match Cbt.router_state p 1 ~group:1 with
  | Some (Some 0, down, false) -> Alcotest.check Alcotest.(list int) "relay down" [ 4 ] down
  | _ -> Alcotest.fail "1 should be a relay under the core");
  (* second join grafts at the first on-tree router, not the core *)
  Cbt.host_join p ~group:1 2;
  Engine.run e;
  (match Cbt.router_state p 2 ~group:1 with
  | Some (Some up, _, true) -> checkb "2 grafts at 0 (its next hop)" true (up = 0)
  | _ -> Alcotest.fail "2 should be connected");
  Alcotest.check Alcotest.(list int) "on-tree routers" [ 0; 1; 2; 4 ] (Cbt.on_tree p ~group:1)

let test_cbt_data_and_encap () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Cbt.create ~delivery net ~core:0 () in
  List.iter
    (fun r ->
      Cbt.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3 ];
  expect_and_send e delivery ~seq:0 ~members:[ 3 ] ~send:(fun () ->
      Cbt.send_data p ~group:1 ~src:4 ~seq:0);
  checki "on-tree source delivers" 1 (Delivery.deliveries delivery);
  expect_and_send e delivery ~seq:1 ~members:[ 3; 4 ] ~send:(fun () ->
      Cbt.send_data p ~group:1 ~src:5 ~seq:1);
  checki "encap source delivers" 3 (Delivery.deliveries delivery);
  checki "clean" 0 (Delivery.duplicates delivery + Delivery.spurious delivery);
  checki "nothing missed" 0 (Delivery.missed delivery)

let test_cbt_quit_cascade () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Cbt.create ~delivery net ~core:0 () in
  Cbt.host_join p ~group:1 4;
  Engine.run e;
  Cbt.host_leave p ~group:1 4;
  Engine.run e;
  checkb "4 gone" true (Cbt.router_state p 4 ~group:1 = None);
  checkb "relay 1 cascaded away" true (Cbt.router_state p 1 ~group:1 = None)

(* ---------------- DVMRP ---------------- *)

let test_dvmrp_flood_prune_reflood () =
  let g = fig5_ms () in
  let e, net, delivery = make_net g in
  let p = Dvmrp.create ~delivery net () in
  Dvmrp.host_join p ~group:1 5;
  checkb "membership" true (Dvmrp.is_member p ~group:1 5);
  (* first packet floods the whole domain and triggers prunes *)
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:0);
  let first_crossings = Netsim.data_transmissions net in
  checki "delivered" 1 (Delivery.deliveries delivery);
  checkb "flood crossed many links" true (first_crossings >= G.link_count g);
  checkb "prune state installed" true (Dvmrp.pruned_links p > 0);
  (* second packet rides the pruned tree: far fewer crossings *)
  expect_and_send e delivery ~seq:1 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:1);
  let second = Netsim.data_transmissions net - first_crossings in
  checki "delivered again" 2 (Delivery.deliveries delivery);
  checkb "pruned tree is lean" true (second < first_crossings);
  checki "exactly once each time" 0
    (Delivery.duplicates delivery + Delivery.spurious delivery + Delivery.missed delivery)

let test_dvmrp_prune_expiry_refloods () =
  let g = fig5_ms () in
  let e, net, delivery = make_net g in
  let p = Dvmrp.create ~delivery net () in
  Dvmrp.host_join p ~group:1 5;
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:0);
  checkb "pruned" true (Dvmrp.pruned_links p > 0);
  (* after the 10 s prune lifetime all prune state is gone *)
  Engine.schedule e ~delay:30.0 (fun () -> ());
  Engine.run e;
  checki "prunes expired" 0 (Dvmrp.pruned_links p)

let test_dvmrp_graft () =
  let g = fig5_ms () in
  let e, net, delivery = make_net g in
  let p = Dvmrp.create ~delivery net () in
  Dvmrp.host_join p ~group:1 5;
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:0);
  (* node 3 was pruned from the (4,1) tree; joining grafts it back *)
  Dvmrp.host_join p ~group:1 3;
  Engine.run e;
  expect_and_send e delivery ~seq:1 ~members:[ 3; 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:1);
  checki "both members served after graft" 3 (Delivery.deliveries delivery);
  checki "no missed" 0 (Delivery.missed delivery)

let test_dvmrp_leave_then_prune () =
  let g = fig5_ms () in
  let e, net, delivery = make_net g in
  let p = Dvmrp.create ~delivery net () in
  Dvmrp.host_join p ~group:1 5;
  Dvmrp.host_join p ~group:1 3;
  expect_and_send e delivery ~seq:0 ~members:[ 3; 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:0);
  Dvmrp.host_leave p ~group:1 3;
  expect_and_send e delivery ~seq:1 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:1);
  checki "departed member not served" 0 (Delivery.spurious delivery);
  checki "remaining member served" 3 (Delivery.deliveries delivery)

let test_dvmrp_per_source_prune_state () =
  (* prune state is per (source, group): pruning away from source 4
     must not dam up traffic from source 1 *)
  let g = fig5_ms () in
  let e, net, delivery = make_net g in
  let p = Dvmrp.create ~delivery net () in
  Dvmrp.host_join p ~group:1 5;
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:4 ~seq:0);
  checkb "prunes installed for source 4" true (Dvmrp.pruned_links p > 0);
  (* a different source's first packet still floods and delivers *)
  expect_and_send e delivery ~seq:1 ~members:[ 5 ] ~send:(fun () ->
      Dvmrp.send_data p ~group:1 ~src:1 ~seq:1);
  checki "both sources delivered" 2 (Delivery.deliveries delivery);
  checki "clean" 0 (Delivery.missed delivery + Delivery.spurious delivery)

let test_cbt_data_before_any_join () =
  (* a packet sent while the group has no tree dies at the core,
     harmlessly *)
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Cbt.create ~delivery net ~core:0 () in
  Delivery.expect delivery ~seq:0 ~members:[] ~sent_at:(Engine.now e);
  Cbt.send_data p ~group:1 ~src:4 ~seq:0;
  Engine.run e;
  checki "no deliveries" 0 (Delivery.deliveries delivery);
  checki "no spurious" 0 (Delivery.spurious delivery);
  checkb "encap charged anyway" true (Netsim.data_overhead net > 0.0)

let test_scmp_delivery_delay_equals_tree_path () =
  (* end-to-end delay is exactly the tree-path delay between source and
     member: the simulator adds nothing else *)
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  List.iter
    (fun r ->
      Scmp_proto.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3 ];
  (* tree: 0-1-4 and 0-3; path 4 -> 3 on the tree = 4-1-0-3 *)
  expect_and_send e delivery ~seq:0 ~members:[ 3 ] ~send:(fun () ->
      Scmp_proto.send_data p ~group:1 ~src:4 ~seq:0);
  checkf "delay = 9 + 3 + 4" 16.0 (Delivery.max_delay delivery)

(* ---------------- PIM-SM (extension baseline) ---------------- *)

module Pim = Protocols.Pim_sm

let test_pim_rpt_join_and_register () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery net ~rp:0 () in
  Pim.host_join p ~group:1 4;
  Engine.run e;
  Alcotest.check Alcotest.(list int) "star-G state on the RP path" [ 0; 1; 4 ]
    (Pim.on_rp_tree p ~group:1);
  (* a source registers to the RP; the RP forwards down the tree *)
  expect_and_send e delivery ~seq:0 ~members:[ 4 ] ~send:(fun () ->
      Pim.send_data p ~group:1 ~src:5 ~seq:0);
  checki "delivered via RP" 1 (Delivery.deliveries delivery);
  checki "clean" 0 (Delivery.duplicates delivery + Delivery.missed delivery)

let newest_delay delivery =
  let newest = ref None in
  Delivery.iter_delays delivery (fun x ->
      if !newest = None then newest := Some x);
  Option.get !newest

let test_pim_spt_switchover () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery net ~rp:0 () in
  Pim.host_join p ~group:1 4;
  Engine.run e;
  (* first packet arrives via the RP and triggers the switchover *)
  expect_and_send e delivery ~seq:0 ~members:[ 4 ] ~send:(fun () ->
      Pim.send_data p ~group:1 ~src:5 ~seq:0);
  checkb "switched" true (Pim.switched_over p ~group:1 ~src:5 4);
  checkb "spt state exists" true (List.length (Pim.on_spt p ~group:1 ~src:5) >= 2);
  let first_delay = newest_delay delivery in
  (* later packets ride the SPT: shorter path, still exactly once *)
  expect_and_send e delivery ~seq:1 ~members:[ 4 ] ~send:(fun () ->
      Pim.send_data p ~group:1 ~src:5 ~seq:1);
  checki "delivered exactly once" 2 (Delivery.deliveries delivery);
  checki "no dups through the transition" 0 (Delivery.duplicates delivery);
  let steady_delay = newest_delay delivery in
  (* RPT: 5~>0 (11) + 0->1->4 (12) = 23; SPT: 5->2->1->4 = 21 *)
  checkf "first packet via RP" 23.0 first_delay;
  checkf "steady state via SPT" 21.0 steady_delay

let test_pim_no_switchover_mode () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery ~spt_switchover:false net ~rp:0 () in
  Pim.host_join p ~group:1 4;
  Engine.run e;
  for seq = 0 to 2 do
    expect_and_send e delivery ~seq ~members:[ 4 ] ~send:(fun () ->
        Pim.send_data p ~group:1 ~src:5 ~seq)
  done;
  checkb "never switches" false (Pim.switched_over p ~group:1 ~src:5 4);
  checki "all via RP, exactly once" 3 (Delivery.deliveries delivery);
  Alcotest.check Alcotest.(list int) "no spt state" [] (Pim.on_spt p ~group:1 ~src:5)

let test_pim_multiple_members_exactly_once () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery net ~rp:0 () in
  List.iter
    (fun r ->
      Pim.host_join p ~group:1 r;
      Engine.run e)
    [ 4; 3; 5 ];
  for seq = 0 to 4 do
    expect_and_send e delivery ~seq ~members:[ 3; 4; 5 ] ~send:(fun () ->
        Pim.send_data p ~group:1 ~src:1 ~seq)
  done;
  checki "15 deliveries" 15 (Delivery.deliveries delivery);
  checki "clean" 0
    (Delivery.duplicates delivery + Delivery.spurious delivery
   + Delivery.missed delivery)

let test_pim_leave () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery net ~rp:0 () in
  Pim.host_join p ~group:1 4;
  Engine.run e;
  expect_and_send e delivery ~seq:0 ~members:[ 4 ] ~send:(fun () ->
      Pim.send_data p ~group:1 ~src:5 ~seq:0);
  Pim.host_leave p ~group:1 4;
  Engine.run e;
  Alcotest.check Alcotest.(list int) "rpt state gone (RP keeps its own)"
    [ 0 ] (Pim.on_rp_tree p ~group:1);
  expect_and_send e delivery ~seq:1 ~members:[] ~send:(fun () ->
      Pim.send_data p ~group:1 ~src:5 ~seq:1);
  checki "nobody served after leave" 1 (Delivery.deliveries delivery);
  checki "no spurious" 0 (Delivery.spurious delivery)

(* One packet over both trees: router 4 gets seq 0 over the RP tree,
   switches over, and then the same packet over its new source tree
   (the SPT upstream 1 re-sends it by hand). The router hands the
   packet to its subnet once — counted spurious once where it is not
   in the packet's member set, delivered once where it is. *)
let test_pim_once_over_both_trees () =
  let over_both ~members =
    let g = fig5 () in
    let e, net, delivery = make_net g in
    let p = Pim.create ~delivery net ~rp:0 () in
    Pim.host_join p ~group:1 4;
    Engine.run e;
    expect_and_send e delivery ~seq:0 ~members ~send:(fun () ->
        Pim.send_data p ~group:1 ~src:5 ~seq:0);
    checkb "switched" true (Pim.switched_over p ~group:1 ~src:5 4);
    Netsim.transmit net ~src:1 ~dst:4 (Message.Data { group = 1; src = 5; seq = 0 });
    Engine.run e;
    (Delivery.deliveries delivery, Delivery.duplicates delivery, Delivery.spurious delivery)
  in
  let counts = Alcotest.(triple int int int) in
  Alcotest.check counts "non-member: spurious once" (0, 0, 1) (over_both ~members:[]);
  Alcotest.check counts "member: delivered once" (1, 0, 0) (over_both ~members:[ 4 ])

(* (S,G,rpt) prune at a relay: RP 0, relay 1 with members 2 and 3 below
   it, source 4 beside the RP. The members' prunes are put on the wire
   by hand (switchover off), so one member can leave the RP tree for
   the source while the other stays on it. *)
let test_pim_rpt_prune_at_relay () =
  let g =
    G.of_links ~n:5
      [ (0, 1, 1.0, 1.0); (1, 2, 1.0, 1.0); (1, 3, 1.0, 1.0); (0, 4, 1.0, 1.0) ]
  in
  let e, net, delivery = make_net g in
  let p = Pim.create ~delivery ~spt_switchover:false net ~rp:0 () in
  List.iter
    (fun r ->
      Pim.host_join p ~group:1 r;
      Engine.run e)
    [ 2; 3 ];
  let sent = ref [] in
  Netsim.on_transmit net (fun ~src ~dst msg ->
      match msg with
      | Message.Pim_prune _ | Message.Pim_join _ | Message.Data _ ->
        sent := (src, dst) :: !sent
      | _ -> ());
  let inject ~src ~dst msg =
    sent := [];
    Netsim.transmit net ~src ~dst msg;
    Engine.run e;
    List.rev !sent
  in
  let prune m =
    inject ~src:m ~dst:1
      (Message.Pim_prune { group = 1; src = Some 4; rpt = true; from = m })
  in
  let data () = inject ~src:0 ~dst:1 (Message.Data { group = 1; src = 4; seq = 0 }) in
  let hops = Alcotest.(list (pair int int)) in
  Alcotest.check hops "member 3 still wants it: no prune upstream" [ (2, 1) ]
    (prune 2);
  Alcotest.check hops "the relay serves member 3 only" [ (0, 1); (1, 3) ] (data ());
  Alcotest.check hops "neither wants it: the relay prunes upstream"
    [ (3, 1); (1, 0) ] (prune 3);
  Alcotest.check hops "a refreshed star-G join stays local" [ (2, 1) ]
    (inject ~src:2 ~dst:1 (Message.Pim_join { group = 1; src = None; from = 2 }));
  Alcotest.check hops "it cancels member 2's prune" [ (0, 1); (1, 2) ] (data ());
  Alcotest.check hops "member 2 wants it again: no prune upstream" [ (3, 1) ]
    (prune 3)

let prop_pim_exactly_once =
  QCheck.Test.make ~name:"PIM-SM exactly-once on random topologies (both modes)"
    ~count:15 QCheck.small_int (fun seed ->
      let spec = Topology.Waxman.generate ~seed:(seed + 2) ~n:30 () in
      let rng = Prng.create (seed * 191) in
      let members = Prng.sample rng 8 30 in
      let source = Prng.int rng 30 in
      let rp = Prng.int rng 30 in
      let expected = List.filter (fun m -> m <> source) members in
      List.for_all
        (fun spt_switchover ->
          let e, net, delivery = make_net spec.Topology.Spec.graph in
          ignore net;
          let p = Pim.create ~delivery ~spt_switchover net ~rp () in
          List.iter
            (fun m ->
              Pim.host_join p ~group:1 m;
              Engine.run e)
            members;
          for seq = 0 to 4 do
            Delivery.expect delivery ~seq ~members:expected ~sent_at:(Engine.now e);
            Pim.send_data p ~group:1 ~src:source ~seq;
            Engine.run e
          done;
          Delivery.deliveries delivery = 5 * List.length expected
          && Delivery.duplicates delivery = 0
          && Delivery.spurious delivery = 0
          && Delivery.missed delivery = 0)
        [ true; false ])

(* ---------------- MOSPF ---------------- *)

let test_mospf_lsa_convergence () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Mospf.create ~delivery net () in
  Mospf.host_join p ~group:1 4;
  Engine.run e;
  for x = 0 to 5 do
    checkb
      (Printf.sprintf "router %d knows 4 joined" x)
      true
      (Mospf.knows_member p ~at:x ~group:1 4)
  done;
  checki "one LSA originated" 1 (Mospf.lsa_count p);
  Mospf.host_leave p ~group:1 4;
  Engine.run e;
  for x = 0 to 5 do
    checkb
      (Printf.sprintf "router %d saw the leave" x)
      false
      (Mospf.knows_member p ~at:x ~group:1 4)
  done

let test_mospf_delivery_on_spt () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Mospf.create ~delivery net () in
  List.iter
    (fun r ->
      Mospf.host_join p ~group:1 r;
      Engine.run e)
    [ 3; 5 ];
  let t0 = Engine.now e in
  expect_and_send e delivery ~seq:0 ~members:[ 3; 5 ] ~send:(fun () ->
      Mospf.send_data p ~group:1 ~src:4 ~seq:0);
  checki "both delivered" 2 (Delivery.deliveries delivery);
  checki "exactly once" 0 (Delivery.duplicates delivery + Delivery.missed delivery);
  (* SPT delivery: max delay equals the longest unicast delay from the
     source among members *)
  ignore t0;
  let apsp = Netgraph.Apsp.compute g in
  let expected =
    Float.max (Netgraph.Apsp.delay apsp 4 3) (Netgraph.Apsp.delay apsp 4 5)
  in
  checkf "min-delay delivery" expected (Delivery.max_delay delivery)

(* ---------------- HPIM-DM ---------------- *)

let test_hpim_hard_state_no_reflood () =
  (* The protocol's defining claim, as a differential against DVMRP:
     after the first flood round the no-interest state is permanent, so
     a packet sent long after DVMRP's prune timeout still rides the
     lean tree, while DVMRP re-floods the whole domain. *)
  let crossings_of_third create_p send =
    let g = fig5 () in
    let e, net, delivery = make_net g in
    let p = create_p delivery net in
    let join, send_data = send p in
    join ();
    expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
        send_data ~seq:0);
    expect_and_send e delivery ~seq:1 ~members:[ 5 ] ~send:(fun () ->
        send_data ~seq:1);
    let before = Netsim.data_transmissions net in
    (* idle past DVMRP's 10 s prune timeout *)
    Engine.schedule e ~delay:30.0 (fun () -> ());
    Engine.run e;
    expect_and_send e delivery ~seq:2 ~members:[ 5 ] ~send:(fun () ->
        send_data ~seq:2);
    checki "all three delivered" 3 (Delivery.deliveries delivery);
    checki "clean" 0
      (Delivery.duplicates delivery + Delivery.spurious delivery
     + Delivery.missed delivery);
    Netsim.data_transmissions net - before
  in
  let hpim =
    crossings_of_third
      (fun delivery net -> Hpim_dm.create ~delivery net ())
      (fun p ->
        ( (fun () -> Hpim_dm.host_join p ~group:1 5),
          fun ~seq -> Hpim_dm.send_data p ~group:1 ~src:4 ~seq ))
  in
  let dvmrp =
    crossings_of_third
      (fun delivery net -> Dvmrp.create ~delivery net ())
      (fun p ->
        ( (fun () -> Dvmrp.host_join p ~group:1 5),
          fun ~seq -> Dvmrp.send_data p ~group:1 ~src:4 ~seq ))
  in
  checkb "DVMRP re-floods after its timeout, HPIM-DM does not" true
    (hpim < dvmrp)

let test_hpim_graft_on_join () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Hpim_dm.create ~delivery net () in
  Hpim_dm.host_join p ~group:1 5;
  checkb "membership" true (Hpim_dm.is_member p ~group:1 5);
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:0);
  checkb "no-interest state installed" true (Hpim_dm.no_interest_links p > 0);
  (* node 3 declared no interest during the flood; joining must graft
     its branch back explicitly — there is no timeout to save it *)
  Hpim_dm.host_join p ~group:1 3;
  Engine.run e;
  expect_and_send e delivery ~seq:1 ~members:[ 3; 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:1);
  checki "both members served after graft" 3 (Delivery.deliveries delivery);
  checki "no missed" 0 (Delivery.missed delivery);
  (match Hpim_dm.verify p with
  | Ok () -> ()
  | Error err -> Alcotest.failf "verify: %s" err)

let test_hpim_leave_then_rejoin () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let p = Hpim_dm.create ~delivery net () in
  Hpim_dm.host_join p ~group:1 5;
  Hpim_dm.host_join p ~group:1 3;
  expect_and_send e delivery ~seq:0 ~members:[ 3; 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:0);
  Hpim_dm.host_leave p ~group:1 3;
  Engine.run e;
  expect_and_send e delivery ~seq:1 ~members:[ 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:1);
  checki "departed member not served" 0 (Delivery.spurious delivery);
  (* hard state means only an explicit re-sync can reopen the branch *)
  Hpim_dm.host_join p ~group:1 3;
  Engine.run e;
  expect_and_send e delivery ~seq:2 ~members:[ 3; 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:2);
  checki "re-join resumes delivery" 0 (Delivery.missed delivery);
  (match Hpim_dm.verify p with
  | Ok () -> ()
  | Error err -> Alcotest.failf "verify: %s" err)

let test_hpim_reliable_sync_under_control_loss () =
  (* Interest syncs ride a lossy control plane: the seq-numbered
     retransmission chain must still converge every branch, and the
     retransmissions must be visible in the observed metrics. *)
  let g = fig5 () in
  let e, net, delivery = make_net g in
  Netsim.set_loss net { rate = 0.3; seed = 11; only = Some `Control };
  let p = Hpim_dm.create ~delivery net () in
  Hpim_dm.host_join p ~group:1 5;
  Hpim_dm.host_join p ~group:1 3;
  expect_and_send e delivery ~seq:0 ~members:[ 3; 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:0);
  expect_and_send e delivery ~seq:1 ~members:[ 3; 5 ] ~send:(fun () ->
      Hpim_dm.send_data p ~group:1 ~src:4 ~seq:1);
  checki "members keep being served" 0 (Delivery.missed delivery);
  let m = Obs.Metrics.create () in
  Hpim_dm.observe p m;
  let c name = Obs.Metrics.counter_value (Obs.Metrics.counter m name) in
  checkb "syncs flowed" true (c "hpim/syncs" > 0);
  checkb "lost syncs were retransmitted" true (c "hpim/retransmissions" > 0);
  (match Hpim_dm.verify p with
  | Ok () -> ()
  | Error err -> Alcotest.failf "verify: %s" err)

let test_scmp_under_packet_loss () =
  (* Failure injection: with lossy links, deliveries are missed but the
     protocol neither crashes nor mis-delivers; lossless runs stay
     perfect (the control case). *)
  let run rate =
    let spec = Topology.Waxman.generate ~seed:3 ~n:30 () in
    let e, net, delivery = make_net spec.Topology.Spec.graph in
    Netsim.set_loss net { rate; seed = 5; only = None };
    let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
    List.iter
      (fun r ->
        Scmp_proto.host_join p ~group:1 r;
        Engine.run e)
      [ 5; 11; 17; 23 ];
    for seq = 0 to 9 do
      Delivery.expect delivery ~seq ~members:[ 11; 17; 23 ] ~sent_at:(Engine.now e);
      Scmp_proto.send_data p ~group:1 ~src:5 ~seq;
      Engine.run e
    done;
    delivery
  in
  let clean = run 0.0 in
  checki "lossless: all delivered" 30 (Delivery.deliveries clean);
  checki "lossless: none missed" 0 (Delivery.missed clean);
  let lossy = run 0.25 in
  checkb "loss causes misses" true (Delivery.missed lossy > 0);
  checki "but never spurious deliveries" 0 (Delivery.spurious lossy);
  checki "and never duplicates" 0 (Delivery.duplicates lossy)

(* ---------------- Churn ---------------- *)

module Churn = Protocols.Churn

let test_churn_statistics () =
  let e = Engine.create () in
  let joined = ref [] and left = ref [] in
  let c =
    Churn.start e
      ~rng:(Prng.create 7)
      ~candidates:(List.init 20 Fun.id)
      ~join:(fun x -> joined := x :: !joined)
      ~leave:(fun x -> left := x :: !left)
      ~mean_interarrival:1.0 ~mean_holding:5.0 ~horizon:200.0
  in
  Engine.run e;
  checki "callbacks = counters (joins)" (Churn.joins c) (List.length !joined);
  checki "callbacks = counters (leaves)" (Churn.leaves c) (List.length !left);
  checkb "plenty of arrivals" true (Churn.joins c > 100);
  (* after the horizon every holding timer has fired *)
  checki "everyone eventually left" (Churn.joins c) (Churn.leaves c);
  Alcotest.check Alcotest.(list int) "no residual members" [] (Churn.current_members c)

let test_churn_members_distinct () =
  let e = Engine.create () in
  let members_now = ref [] in
  let c =
    Churn.start e
      ~rng:(Prng.create 11)
      ~candidates:[ 1; 2; 3 ]
      ~join:(fun _ -> ())
      ~leave:(fun _ -> ())
      ~mean_interarrival:0.5 ~mean_holding:50.0 ~horizon:20.0
  in
  (* sample membership mid-run: never exceeds the pool, never repeats *)
  Engine.schedule e ~delay:10.0 (fun () -> members_now := Churn.current_members c);
  Engine.run e;
  checkb "bounded by pool" true (List.length !members_now <= 3);
  checki "distinct" (List.length !members_now)
    (List.length (List.sort_uniq compare !members_now))

(* [pick_outside] against the list-building arrival it replaced:
   [Prng.pick] over the outside candidates, listed in pool order. Pools
   may repeat a router; the next draw shows both consumed the stream
   alike (an exhausted pool draws nothing). *)
let prop_churn_pick_outside =
  QCheck.Test.make ~name:"pick_outside = Prng.pick over the outside candidates"
    ~count:500
    QCheck.(triple small_nat small_nat small_nat)
    (fun (pool_seed, member_seed, seed) ->
      let prng = Prng.create pool_seed in
      let pool = Array.init (Prng.int prng 40) (fun _ -> Prng.int prng 50) in
      let mrng = Prng.create member_seed in
      let density = Prng.float mrng 1.0 in
      let inside_of = Array.init 50 (fun _ -> Prng.chance mrng density) in
      let inside x = inside_of.(x) in
      let a = Prng.create seed and b = Prng.create seed in
      let got = Churn.pick_outside a pool ~inside in
      let want =
        match Array.to_list pool |> List.filter (fun x -> not (inside x)) with
        | [] -> None
        | outside -> Some (Prng.pick b (Array.of_list outside))
      in
      got = want && Prng.int a 1_000_000 = Prng.int b 1_000_000)

(* An arrival costs the same few words whatever the candidate pool: the
   same churn over pools of 50 and 5,000 candidates, minor words per
   join over the run (the pool's array is built before it). *)
let test_churn_arrival_words_flat () =
  let words_per_join pool =
    let e = Engine.create () in
    let c =
      Churn.start e
        ~rng:(Prng.create 3)
        ~candidates:(List.init pool Fun.id)
        ~join:(fun _ -> ()) ~leave:(fun _ -> ())
        ~mean_interarrival:0.5 ~mean_holding:10.0 ~horizon:200.0
    in
    let w0 = Gc.minor_words () in
    Engine.run e;
    let w = Gc.minor_words () -. w0 in
    checkb "plenty of joins" true (Churn.joins c > 300);
    w /. float_of_int (Churn.joins c)
  in
  let small = words_per_join 50 and large = words_per_join 5000 in
  checkb
    (Printf.sprintf "%.1f words per join over 5,000 candidates, %.1f over 50"
       large small)
    true
    (large <= small +. 8.0)

let test_churn_drives_scmp_consistently () =
  (* Poisson churn against the full SCMP machinery: after the dust
     settles the network must still mirror the m-router's tree. Churn
     times are in scaled seconds, far above network RTTs, so most
     transitions complete before the next one starts — and transient
     overlap is exactly what the protocol must survive. *)
  let spec = Topology.Waxman.generate ~seed:13 ~n:40 () in
  let e, net, delivery = make_net (Topology.Spec.sim_graph spec) in
  let p = Scmp_proto.create ~delivery net ~mrouter:0 () in
  let c =
    Churn.start e
      ~rng:(Prng.create 17)
      ~candidates:(List.init 39 (fun i -> i + 1))
      ~join:(fun x -> Scmp_proto.host_join p ~group:1 x)
      ~leave:(fun x -> Scmp_proto.host_leave p ~group:1 x)
      ~mean_interarrival:0.3 ~mean_holding:4.0 ~horizon:60.0
  in
  Engine.run e;
  checkb "substantial churn" true (Churn.joins c > 50);
  (match Scmp_proto.network_tree_consistent p ~group:1 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "after churn: %s" err);
  match Scmp_proto.mrouter_tree p ~group:1 with
  | None -> Alcotest.fail "tree should exist"
  | Some t ->
    checkb "tree valid" true (Mtree.Tree.well_formed t = Ok ());
    Alcotest.check Alcotest.(list int) "membership agrees with churn state"
      (Churn.current_members c) (Mtree.Tree.members t)

(* ---------------- Multi (multiple m-routers, §II.A) ---------------- *)

module Multi = Protocols.Multi

let test_multi_homes_and_trees () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let m = Multi.create ~delivery net ~mrouters:[ 0; 2 ] () in
  Alcotest.check Alcotest.(list int) "m-routers" [ 0; 2 ] (Multi.mrouters m);
  (* round-robin by group id: even groups at 0, odd at 2 *)
  checki "home of g2" 0 (Multi.home m ~group:2);
  checki "home of g3" 2 (Multi.home m ~group:3);
  Multi.host_join m ~group:2 4;
  Multi.host_join m ~group:3 4;
  Engine.run e;
  (match Multi.tree m ~group:2 with
  | Some t -> checki "g2 rooted at 0" 0 (Mtree.Tree.root t)
  | None -> Alcotest.fail "no g2 tree");
  (match Multi.tree m ~group:3 with
  | Some t -> checki "g3 rooted at 2" 2 (Mtree.Tree.root t)
  | None -> Alcotest.fail "no g3 tree");
  (match Multi.network_tree_consistent m ~group:2 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "g2: %s" err);
  match Multi.network_tree_consistent m ~group:3 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "g3: %s" err

let test_multi_delivery_per_home () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let m = Multi.create ~delivery net ~mrouters:[ 0; 2 ] () in
  List.iter (fun r -> Multi.host_join m ~group:2 r) [ 4; 5 ];
  List.iter (fun r -> Multi.host_join m ~group:3 r) [ 1; 3 ];
  Engine.run e;
  (* on-tree source in g2 *)
  expect_and_send e delivery ~seq:0 ~members:[ 5 ] ~send:(fun () ->
      Multi.send_data m ~group:2 ~src:4 ~seq:0);
  (* off-tree source in g3: encapsulates to g3's home (node 2) *)
  expect_and_send e delivery ~seq:1 ~members:[ 1; 3 ] ~send:(fun () ->
      Multi.send_data m ~group:3 ~src:5 ~seq:1);
  checki "all deliveries" 3 (Delivery.deliveries delivery);
  checki "clean" 0
    (Delivery.duplicates delivery + Delivery.spurious delivery
   + Delivery.missed delivery)

let test_multi_custom_assignment () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  let m =
    Multi.create ~delivery net ~mrouters:[ 0; 2 ]
      ~assign:(fun group -> if group < 100 then 2 else 0)
      ()
  in
  checki "custom home" 2 (Multi.home m ~group:7);
  Multi.host_join m ~group:7 5;
  Engine.run e;
  (match Multi.tree m ~group:7 with
  | Some t -> checki "rooted per assignment" 2 (Mtree.Tree.root t)
  | None -> Alcotest.fail "no tree");
  (* a broken assignment function is rejected loudly *)
  let bad = Multi.create ~delivery net ~mrouters:[ 0 ] ~assign:(fun _ -> 5) () in
  Alcotest.check_raises "assign outside set"
    (Invalid_argument "Multi: assign returned 5, not one of the m-routers")
    (fun () -> ignore (Multi.home bad ~group:1))

let test_multi_create_errors () =
  let g = fig5 () in
  let e, net, delivery = make_net g in
  ignore e;
  Alcotest.check_raises "empty" (Invalid_argument "Multi.create: need at least one m-router")
    (fun () -> ignore (Multi.create ~delivery net ~mrouters:[] ()));
  Alcotest.check_raises "duplicate" (Invalid_argument "Multi.create: duplicate m-router")
    (fun () -> ignore (Multi.create ~delivery net ~mrouters:[ 1; 1 ] ()))

let test_multi_load_spreads () =
  (* with two homes, join-processing control work lands on both *)
  let spec = Topology.Waxman.generate ~seed:6 ~n:40 () in
  let e, net, delivery = make_net spec.Topology.Spec.graph in
  let m = Multi.create ~delivery net ~mrouters:[ 0; 20 ] () in
  for grp = 1 to 6 do
    List.iter
      (fun r -> Multi.host_join m ~group:grp r)
      [ 5 + grp; 15 + grp; 25 + grp ]
  done;
  Engine.run e;
  let trees_at home =
    List.length
      (List.filter
         (fun grp ->
           match Multi.tree m ~group:grp with
           | Some t -> Mtree.Tree.root t = home
           | None -> false)
         [ 1; 2; 3; 4; 5; 6 ])
  in
  checki "half the groups at each home" 3 (trees_at 0);
  checki "other half" 3 (trees_at 20)

(* ---------------- Runner ---------------- *)

let runner_scenario seed =
  let spec = Topology.Flat_random.generate ~seed ~n:30 ~avg_degree:3.0 in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let rng = Prng.create (seed + 5) in
  let members = Prng.sample rng 10 30 |> List.filter (fun x -> x <> center) in
  Runner.make ~spec ~center ~source:(List.hd members) ~members ()

(* [Churn.start] bounds the arrival count itself, so a library caller
   that builds its own [Runner.churn] gets an error instead of a run that
   never returns: a mean of 1e-300 s no longer advances the clock, and
   arrivals used to be scheduled at one instant without end. *)
let test_churn_arrivals_bounded () =
  let base = runner_scenario 11 in
  let churn mean =
    {
      base with
      Runner.churn =
        Some
          {
            Runner.mean_interarrival = mean;
            mean_holding = 5.0;
            horizon = Runner.data_end base;
            churn_seed = 1;
          };
    }
  in
  (match Runner.run (Protocols.Driver.find_exn "scmp") (churn 1e-300) with
  | _ -> Alcotest.fail "a churn expecting 1e301 arrivals must be refused"
  | exception Invalid_argument msg ->
    checkb "Churn.start names itself" true
      (String.starts_with ~prefix:"Churn.start: " msg));
  checkb "over the bound" true
    (Churn.too_dense ~mean_interarrival:0.25 ~span:250_001.0 = Some 1_000_004.0);
  checkb "at the bound" true
    (Churn.too_dense ~mean_interarrival:0.25 ~span:250_000.0 = None);
  let r = Runner.run (Protocols.Driver.find_exn "scmp") (churn 0.5) in
  checkb "a modest churn runs" true (r.Runner.deliveries > 0)

let test_runner_exactly_once_all_protocols () =
  let sc = runner_scenario 11 in
  let n_members = List.length sc.Runner.members in
  List.iter
    (fun d ->
      let r = Runner.run d sc in
      let name = Protocols.Driver.display d in
      checki (name ^ " deliveries") (30 * (n_members - 1)) r.Runner.deliveries;
      checki (name ^ " dups") 0 r.Runner.duplicates;
      checki (name ^ " spurious") 0 r.Runner.spurious;
      checki (name ^ " missed") 0 r.Runner.missed;
      checkb (name ^ " data overhead positive") true (r.Runner.data_overhead > 0.0);
      checkb (name ^ " delay positive") true (r.Runner.max_delay > 0.0))
    (Protocols.Driver.all ())

let test_runner_deterministic () =
  let sc = runner_scenario 13 in
  List.iter
    (fun d ->
      let a = Runner.run d sc in
      let b = Runner.run d sc in
      checkb (Protocols.Driver.display d ^ " bitwise identical") true (a = b))
    (Protocols.Driver.all ())

let test_runner_leavers () =
  let sc0 = runner_scenario 17 in
  (* one member leaves halfway through the data phase *)
  let departer = List.nth sc0.Runner.members 3 in
  let t_leave = sc0.Runner.data_start +. 15.2 in
  let sc = { sc0 with Runner.leavers = [ (t_leave, departer) ] } in
  let r = Runner.run (Protocols.Driver.find_exn "scmp") sc in
  let n = List.length sc.Runner.members in
  (* 16 packets expected by everyone, 14 by everyone minus the
     departer (send times are data_start + 0..29) *)
  checki "missed none" 0 r.Runner.missed;
  checki "spurious none" 0 r.Runner.spurious;
  checki "deliveries drop after leave" ((16 * (n - 1)) + (14 * (n - 2)))
    r.Runner.deliveries

let delivery_expected driver sc =
  let r = Obs.Report.create ~name:"expected" () in
  ignore (Runner.run ~report:r driver sc);
  Obs.Metrics.counter_value
    (Obs.Metrics.counter (Obs.Report.metrics r) "delivery/expected")

let test_runner_expected_pinned () =
  (* Each packet is expected by the live membership at its send
     instant, whether members leave on a script or churn; the totals
     are pinned. *)
  let scmp = Protocols.Driver.find_exn "scmp" in
  let sc0 = runner_scenario 17 in
  let departer = List.nth sc0.Runner.members 3 in
  let leavers =
    { sc0 with Runner.leavers = [ (sc0.Runner.data_start +. 15.2, departer) ] }
  in
  checki "leavers run" 256 (delivery_expected scmp leavers);
  let sc0 = runner_scenario 19 in
  let departer = List.nth sc0.Runner.members 2 in
  let churn =
    {
      sc0 with
      Runner.leavers = [ (sc0.Runner.data_start +. 10.5, departer) ];
      churn =
        Some
          {
            Runner.mean_interarrival = 0.5;
            mean_holding = 6.0;
            horizon = Runner.data_end sc0;
            churn_seed = 3;
          };
    }
  in
  checki "churn run" 702 (delivery_expected scmp churn);
  (* A router that joins twice counts twice until its one leave clears
     it: each of the 13 packets before the leave counts the 9 members
     other than the source with that one twice (10), each of the 17
     after it the 8 left. *)
  let sc0 = runner_scenario 23 in
  let twice = List.nth sc0.Runner.members 2 in
  let sc =
    Runner.make ~spec:sc0.Runner.spec ~center:sc0.Runner.center
      ~source:sc0.Runner.source ~members:(sc0.Runner.members @ [ twice ]) ()
  in
  let sc = { sc with Runner.leavers = [ (sc.Runner.data_start +. 12.5, twice) ] } in
  checki "joined twice, left once" 266 (delivery_expected scmp sc)

let test_driver_always_full_tree () =
  (* The BRANCH-vs-TREE ablation is a driver outside the list: same
     trees, so the same deliveries over the same data plane, but every
     change costs a full TREE packet. *)
  let sc = runner_scenario 11 in
  let full_tree = Protocols.Driver.find_exn "scmp-full-tree" in
  let a = Runner.run (Protocols.Driver.find_exn "scmp") sc in
  let b = Runner.run full_tree sc in
  checki "same deliveries" a.Runner.deliveries b.Runner.deliveries;
  checki "none missed" 0 b.Runner.missed;
  checki "no duplicates" 0 b.Runner.duplicates;
  checkf "same data overhead" a.Runner.data_overhead b.Runner.data_overhead;
  checkb "protocol overhead at least SCMP's" true
    (b.Runner.protocol_overhead >= a.Runner.protocol_overhead);
  let name = Protocols.Driver.name full_tree in
  checkb "not in the driver list" false
    (List.mem name (Protocols.Driver.names ()))

(* Words per data transmission, pinned per driver the way the engine's
   fast path is: one Waxman-60 scenario (seed 1, 20 members, a packet
   every 10 ms), the minor words a run of 500 packets allocates beyond
   a run of 50, over the data transmissions it adds. Both runs build
   their own spec, so fixed costs cancel. No control packet may cross
   between the two (the figure is the data path alone); DVMRP's prune
   timers first fire 10 s into the data, so its control plane is
   measured apart, over a run of 2,500 packets (25 s, two re-flood
   rounds), net of its data-path rate. *)
let words_scenario count =
  let spec = Topology.Waxman.generate ~seed:1 ~n:60 () in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let members =
    Prng.sample (Prng.create 6) 20 60 |> List.filter (fun x -> x <> center)
  in
  Runner.make ~data_interval:0.01 ~data_count:count ~spec ~center
    ~source:(List.hd members) ~members ()

let words_of_run d count =
  let sc = words_scenario count in
  let w0 = Gc.minor_words () in
  let r = Runner.run d sc in
  (Gc.minor_words () -. w0, r)

let test_runner_words_per_transmission () =
  let bound = function "scmp" -> 6.1 | "cbt" -> 5.9 | _ -> 8.0 in
  List.iter
    (fun d ->
      let name = Protocols.Driver.name d in
      let w_short, short = words_of_run d 50 in
      let w_long, long = words_of_run d 500 in
      let data = long.Runner.data_transmissions - short.Runner.data_transmissions in
      checki (name ^ ": no control traffic between the runs") 0
        (long.Runner.control_transmissions - short.Runner.control_transmissions);
      let per_tx = (w_long -. w_short) /. float_of_int data in
      checkb
        (Printf.sprintf "%s: %.2f minor words per data transmission, at most %.1f"
           name per_tx (bound name))
        true
        (per_tx <= bound name);
      if name = "dvmrp" then begin
        let w_prunes, prunes = words_of_run d 2500 in
        let control =
          prunes.Runner.control_transmissions - long.Runner.control_transmissions
        in
        let data = prunes.Runner.data_transmissions - long.Runner.data_transmissions in
        checkb "dvmrp re-prunes" true (control > 0);
        let per_control =
          (w_prunes -. w_long -. (per_tx *. float_of_int data)) /. float_of_int control
        in
        checkb
          (Printf.sprintf "dvmrp: %.2f minor words per control transmission, at most 3"
             per_control)
          true (per_control <= 3.0)
      end)
    (Protocols.Driver.all ())

(* Words per event on the membership and control path, pinned like
   the data path above: SCMP on Waxman-200 (seed 1) with 40 members and
   a Poisson churn of 5 joins/s held 20 s on average, invariants on. A
   run of 80 packets against one of 20 (the churn runs until the data
   ends), both after a warm-up run, so fixed and first-use costs
   cancel: the figure is the steady state of churn, JOIN/LEAVE at the
   m-router, TREE/BRANCH/PRUNE and data together. *)
let churn_words_scenario count =
  let spec = Topology.Waxman.generate ~seed:1 ~n:200 () in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let members =
    Prng.sample (Prng.create 6) 40 200 |> List.filter (fun x -> x <> center)
  in
  let base =
    Runner.make ~data_count:count ~spec ~center ~source:(List.hd members) ~members ()
  in
  {
    base with
    Runner.churn =
      Some
        {
          Runner.mean_interarrival = 0.2;
          mean_holding = 20.0;
          horizon = Runner.data_end base;
          churn_seed = 5;
        };
  }

let test_runner_churn_words_per_event () =
  let scmp = Protocols.Driver.find_exn "scmp" in
  let words_and_events count =
    let sc = churn_words_scenario count in
    let r = Obs.Report.create ~name:"churn-words" () in
    let w0 = Gc.minor_words () in
    ignore (Runner.run ~check:true ~report:r scmp sc);
    let w = Gc.minor_words () -. w0 in
    ( w,
      Obs.Metrics.counter_value
        (Obs.Metrics.counter (Obs.Report.metrics r) "engine/events_executed") )
  in
  ignore (words_and_events 20);
  let w_short, e_short = words_and_events 20 in
  let w_long, e_long = words_and_events 80 in
  let per_event = (w_long -. w_short) /. float_of_int (e_long - e_short) in
  checkb
    (Printf.sprintf "%.2f minor words per event under churn, at most 24" per_event)
    true (per_event <= 24.0)

(* A checked run that trips still finishes its trace and its report
   before the violation escapes: SCMP whose quiescent self-check always
   fails stands in for a real defect. *)
module Failing_verify = struct
  let name = "scmp-failing-verify"
  let display = "SCMP*"

  let setup cfg =
    let inst = Protocols.Driver.setup (Protocols.Driver.find_exn "scmp") cfg in
    { inst with Protocols.Driver.verify = (fun () -> Error "stub") }
end

let test_runner_trip_keeps_evidence () =
  let trace = Filename.temp_file "scmp_trip" ".tr" in
  Sys.remove trace;
  let sc = { (runner_scenario 11) with Runner.trace_path = Some trace } in
  let report = Obs.Report.create ~name:"trip" () in
  (match
     Runner.run ~check:true ~report (module Failing_verify : Protocols.Driver.S) sc
   with
  | _ -> Alcotest.fail "the stub verify must trip the run"
  | exception Check.Invariant.Violation msg ->
    Alcotest.check Alcotest.string "the stub tripped it"
      "runner driver verify: stub" msg);
  checkb "trace written" true (Sys.file_exists trace);
  checkb "trace has crossings" true
    (In_channel.with_open_bin trace In_channel.length > 0L);
  Sys.remove trace;
  checkb "report finished" true
    (List.mem "delivery/ratio" (Obs.Metrics.names (Obs.Report.metrics report)))

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "protocols"
    [
      ( "tree_packet",
        [
          Alcotest.test_case "paper example" `Quick test_tree_packet_paper_example;
          Alcotest.test_case "leaf" `Quick test_tree_packet_leaf;
          Alcotest.test_case "of_tree" `Quick test_tree_packet_of_tree;
          Alcotest.test_case "decode errors" `Quick test_tree_packet_decode_errors;
          qc prop_tree_packet_roundtrip;
          qc prop_tree_packet_size;
          qc prop_tree_packet_decode_damaged;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "recorder" `Quick test_delivery_recorder;
          Alcotest.test_case "empty" `Quick test_delivery_empty;
          Alcotest.test_case "record once" `Quick test_delivery_record_once;
        ] );
      ( "forwarding",
        [
          QCheck_alcotest.to_alcotest prop_forwarding_table_model;
          Alcotest.test_case "one step" `Quick test_forwarding_step;
          Alcotest.test_case "neighbour fan-out" `Quick test_forwarding_fan_out;
        ] );
      ( "igmp",
        [
          Alcotest.test_case "callbacks" `Quick test_igmp_callbacks;
          Alcotest.test_case "rejoin during wait" `Quick test_igmp_rejoin_during_wait;
          Alcotest.test_case "queries" `Quick test_igmp_queries;
        ] );
      ( "scmp",
        [
          qc prop_roster_model;
          Alcotest.test_case "join builds tree" `Quick test_scmp_join_builds_consistent_tree;
          Alcotest.test_case "data delivery" `Quick test_scmp_data_delivery;
          Alcotest.test_case "leave prunes" `Quick test_scmp_leave_prunes_network;
          Alcotest.test_case "m-router member" `Quick test_scmp_mrouter_member;
          Alcotest.test_case "full-tree ablation equivalent" `Quick
            test_scmp_full_tree_distribution_equivalent;
          Alcotest.test_case "two groups isolated" `Quick test_scmp_two_groups_isolated;
          Alcotest.test_case "relay becomes member" `Quick test_scmp_relay_becomes_member;
          Alcotest.test_case "delay = tree path delay" `Quick
            test_scmp_delivery_delay_equals_tree_path;
          qc prop_scmp_churn_consistent;
        ] );
      ( "cbt",
        [
          Alcotest.test_case "join/tree shape" `Quick test_cbt_join_and_tree_shape;
          Alcotest.test_case "data + encap" `Quick test_cbt_data_and_encap;
          Alcotest.test_case "quit cascade" `Quick test_cbt_quit_cascade;
          Alcotest.test_case "data before joins" `Quick test_cbt_data_before_any_join;
        ] );
      ( "dvmrp",
        [
          Alcotest.test_case "flood/prune" `Quick test_dvmrp_flood_prune_reflood;
          Alcotest.test_case "prune expiry" `Quick test_dvmrp_prune_expiry_refloods;
          Alcotest.test_case "graft" `Quick test_dvmrp_graft;
          Alcotest.test_case "leave" `Quick test_dvmrp_leave_then_prune;
          Alcotest.test_case "per-source prune state" `Quick
            test_dvmrp_per_source_prune_state;
        ] );
      ( "pim-sm",
        [
          Alcotest.test_case "RP tree + register" `Quick test_pim_rpt_join_and_register;
          Alcotest.test_case "SPT switchover" `Quick test_pim_spt_switchover;
          Alcotest.test_case "no-switchover mode" `Quick test_pim_no_switchover_mode;
          Alcotest.test_case "multi-member exactly once" `Quick
            test_pim_multiple_members_exactly_once;
          Alcotest.test_case "leave" `Quick test_pim_leave;
          Alcotest.test_case "once over both trees" `Quick test_pim_once_over_both_trees;
          Alcotest.test_case "(S,G,rpt) prune at a relay" `Quick
            test_pim_rpt_prune_at_relay;
          qc prop_pim_exactly_once;
        ] );
      ( "hpim-dm",
        [
          Alcotest.test_case "hard state, no re-flood (vs DVMRP)" `Quick
            test_hpim_hard_state_no_reflood;
          Alcotest.test_case "graft on join" `Quick test_hpim_graft_on_join;
          Alcotest.test_case "leave then re-join" `Quick
            test_hpim_leave_then_rejoin;
          Alcotest.test_case "reliable sync under control loss" `Quick
            test_hpim_reliable_sync_under_control_loss;
        ] );
      ( "mospf",
        [
          Alcotest.test_case "LSA convergence" `Quick test_mospf_lsa_convergence;
          Alcotest.test_case "SPT delivery" `Quick test_mospf_delivery_on_spt;
        ] );
      ( "loss",
        [
          Alcotest.test_case "SCMP under packet loss" `Quick test_scmp_under_packet_loss;
        ] );
      ( "churn",
        [
          Alcotest.test_case "statistics" `Quick test_churn_statistics;
          Alcotest.test_case "distinct members" `Quick test_churn_members_distinct;
          Alcotest.test_case "drives SCMP consistently" `Quick
            test_churn_drives_scmp_consistently;
          Alcotest.test_case "arrival count is bounded" `Quick
            test_churn_arrivals_bounded;
          qc prop_churn_pick_outside;
          Alcotest.test_case "arrival words flat in the pool" `Quick
            test_churn_arrival_words_flat;
        ] );
      ( "multi",
        [
          Alcotest.test_case "homes and trees" `Quick test_multi_homes_and_trees;
          Alcotest.test_case "delivery per home" `Quick test_multi_delivery_per_home;
          Alcotest.test_case "custom assignment" `Quick test_multi_custom_assignment;
          Alcotest.test_case "create errors" `Quick test_multi_create_errors;
          Alcotest.test_case "load spreads" `Quick test_multi_load_spreads;
        ] );
      ( "runner",
        [
          Alcotest.test_case "exactly once, all protocols" `Quick
            test_runner_exactly_once_all_protocols;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "leavers" `Quick test_runner_leavers;
          Alcotest.test_case "expected sets pinned" `Quick
            test_runner_expected_pinned;
          Alcotest.test_case "always-TREE driver" `Quick
            test_driver_always_full_tree;
          Alcotest.test_case "words per data transmission, all drivers" `Quick
            test_runner_words_per_transmission;
          Alcotest.test_case "words per event under churn" `Quick
            test_runner_churn_words_per_event;
          Alcotest.test_case "tripped check keeps trace and report" `Quick
            test_runner_trip_keeps_evidence;
        ] );
    ]
