(* Differential tests for the demand-driven routing caches.

   The lazy, incrementally-invalidated tables (Eventsim.Routes inside
   Netsim; Netgraph.Apsp over a fault overlay) must answer *exactly*
   like eager recomputation over a materialized copy of the surviving
   subgraph — paths, next hops and distances alike, ties included —
   across random Waxman topologies, quantized-weight graphs whose ties
   are common, and random fault schedules, with partial query mixes
   issued between failure and restore. *)

module G = Netgraph.Graph
module Apsp = Netgraph.Apsp
module D = Netgraph.Dijkstra
module Engine = Eventsim.Engine
module Netsim = Eventsim.Netsim
module Routes = Eventsim.Routes
module Prng = Scmp_util.Prng

let graph_of_seed seed =
  let n = 16 + (seed mod 16) in
  (Topology.Waxman.generate ~seed:(seed + 1) ~n ()).Topology.Spec.graph

(* Weights from a tiny set make equal-length paths common, so the order
   in which the masked views relax the surviving links decides
   predecessors: a revived link out of its original slot position
   shows up as a different tree. *)
let quantized_of_seed seed =
  let rng = Prng.create ((seed * 48271) + 7) in
  let n = 8 + Prng.int rng 10 in
  let b = G.Builder.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.chance rng 0.4 then
        G.Builder.add_link b u v
          ~delay:(float_of_int (1 + Prng.int rng 3))
          ~cost:(float_of_int (1 + Prng.int rng 2))
    done
  done;
  G.Builder.freeze b

(* Every differential below runs on both kinds of graph. *)
let graphs_of_seed seed = [ graph_of_seed seed; quantized_of_seed seed ]

let base_links g =
  let acc = ref [] in
  G.iter_links g (fun l -> acc := (l.G.u, l.G.v) :: !acc);
  Array.of_list (List.rev !acc)

(* The seed implementation: a full Dijkstra sweep over a fresh copy of
   the live subgraph. *)
let eager_routes net =
  let g = Netsim.live_graph net in
  let r = Routes.compute g in
  for s = 0 to G.node_count g - 1 do
    ignore (Routes.spt r ~src:s)
  done;
  r

let same_path a b =
  match (a, b) with
  | None, None -> true
  | Some p, Some q -> p = q
  | Some _, None | None, Some _ -> false

let routes_agree lazy_r eager_r n =
  let ok = ref true in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if Routes.distance lazy_r ~src ~dst <> Routes.distance eager_r ~src ~dst
      then ok := false;
      if
        not
          (same_path
             (Routes.path lazy_r ~src ~dst)
             (Routes.path eager_r ~src ~dst))
      then ok := false;
      if Routes.next_hop lazy_r ~src ~dst <> Routes.next_hop eager_r ~src ~dst
      then ok := false
    done
  done;
  !ok

let prop_netsim_differential =
  QCheck.Test.make
    ~name:"lazy Netsim routes = eager recompute across fault schedules"
    ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (tseed, fseed) ->
      List.for_all
        (fun g ->
          let n = G.node_count g in
          let engine = Engine.create () in
          let net = Netsim.create engine g ~classify:(fun (_ : unit) -> `Data) in
          let links = base_links g in
          let rng = Prng.create ((fseed * 65537) + 1) in
          let ok = ref true in
          let partial_queries () =
            (* populate part of the cache so invalidation always works on a
               mixed cached/uncached table *)
            for _ = 1 to 4 do
              let src = Prng.int rng n and dst = Prng.int rng n in
              ignore (Routes.distance (Netsim.routes net) ~src ~dst);
              ignore (Routes.path (Netsim.routes net) ~src ~dst)
            done
          in
          let check_full () =
            if not (routes_agree (Netsim.routes net) (eager_routes net) n) then
              ok := false
          in
          check_full ();
          for _round = 1 to 12 do
            partial_queries ();
            (match Prng.int rng 4 with
            | 0 ->
              let a, b = links.(Prng.int rng (Array.length links)) in
              Netsim.fail_link net a b
            | 1 -> (
              (* restore one currently-dead link, if any *)
              match Netsim.dead_link_list net with
              | [] -> ()
              | dead ->
                let a, b = List.nth dead (Prng.int rng (List.length dead)) in
                Netsim.restore_link net a b)
            | 2 -> Netsim.fail_node net (Prng.int rng n)
            | _ -> Netsim.restore_node net (Prng.int rng n));
            (* queries between the fault and any later restore *)
            partial_queries ();
            check_full ()
          done;
          !ok)
        (graphs_of_seed tseed))

let prop_apsp_differential =
  QCheck.Test.make
    ~name:"filtered lazy Apsp = Apsp over the materialized subgraph"
    ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (tseed, fseed) ->
      List.for_all
        (fun g ->
          let n = G.node_count g in
          let rng = Prng.create ((fseed * 92821) + 5) in
          (* random overlay: ~25% of links dead, up to two nodes down *)
          let dead = Array.make (G.edge_count g) false in
          for e = 0 to G.edge_count g - 1 do
            if Prng.chance rng 0.25 then dead.(e) <- true
          done;
          let node_down = Array.make n false in
          for _ = 1 to 2 do
            if Prng.chance rng 0.5 then node_down.(Prng.int rng n) <- true
          done;
          (* a down node is the death of its incident links *)
          let edge_ok e =
            not (dead.(e) || node_down.(G.edge_u g e) || node_down.(G.edge_v g e))
          in
          let lazy_t = Apsp.compute ~edge_ok g in
          let bld = G.Builder.create n in
          for e = 0 to G.edge_count g - 1 do
            let u = G.edge_u g e and v = G.edge_v g e in
            if edge_ok e then
              G.Builder.add_link bld u v ~delay:(G.edge_delay g e)
                ~cost:(G.edge_cost g e)
          done;
          let eager_t = Apsp.compute (G.Builder.freeze bld) in
          let ok = ref true in
          (* interleaved query order so memoization is exercised per metric *)
          for a = 0 to n - 1 do
            for b = 0 to n - 1 do
              if Apsp.delay lazy_t a b <> Apsp.delay eager_t a b then ok := false;
              if not (same_path (Apsp.sl_path lazy_t a b) (Apsp.sl_path eager_t a b))
              then ok := false;
              if Apsp.cost lazy_t a b <> Apsp.cost eager_t a b then ok := false;
              if not (same_path (Apsp.lc_path lazy_t a b) (Apsp.lc_path eager_t a b))
              then ok := false
            done
          done;
          !ok)
        (graphs_of_seed tseed))

(* [Routes.next_hop] walks the predecessor chain instead of building
   the path; it must still name the path's second node, on a clean
   overlay and after every fault of a random schedule. *)
let prop_next_hop_matches_path =
  QCheck.Test.make ~name:"next_hop = second node of the routed path, with faults"
    ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (tseed, fseed) ->
      let g = graph_of_seed tseed in
      let n = G.node_count g in
      let engine = Engine.create () in
      let net = Netsim.create engine g ~classify:(fun (_ : unit) -> `Data) in
      let links = base_links g in
      let rng = Prng.create ((fseed * 40503) + 3) in
      let agree () =
        let r = Netsim.routes net in
        let ok = ref true in
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            let from_path =
              match Routes.path r ~src ~dst with
              | Some (_ :: hop :: _) -> Some hop
              | Some _ | None -> None
            in
            if Routes.next_hop r ~src ~dst <> from_path then ok := false
          done
        done;
        !ok
      in
      let ok = ref (agree ()) in
      for _round = 1 to 8 do
        (match Prng.int rng 3 with
        | 0 ->
          let a, b = links.(Prng.int rng (Array.length links)) in
          Netsim.fail_link net a b
        | 1 -> Netsim.fail_node net (Prng.int rng n)
        | _ -> (
          match Netsim.dead_link_list net with
          | [] -> ()
          | (a, b) :: _ -> Netsim.restore_link net a b));
        if not (agree ()) then ok := false
      done;
      !ok)

(* Routes borrowing the unfiltered APSP table's delay SPTs must answer
   exactly like Routes building its own, across link and node faults
   and heals — and the borrowing must never write into the table: a
   borrowed SPT recycled into the routes workspace would be overwritten
   by the next fill under a fault, while the m-router still reads it. *)
let prop_shared_routes_differential =
  QCheck.Test.make
    ~name:"Routes sharing the APSP table = Routes building its own; table intact"
    ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (tseed, fseed) ->
      let g = graph_of_seed tseed in
      let n = G.node_count g in
      let links = base_links g in
      let rng = Prng.create ((fseed * 69621) + 7) in
      let table = Apsp.compute g in
      (* some table entries exist before the first borrow, some not *)
      for _ = 1 to 3 do
        ignore (Apsp.sl_tree table (Prng.int rng n))
      done;
      let make () =
        Netsim.create (Engine.create ()) g ~classify:(fun (_ : unit) -> `Data)
      in
      let shared_net = make () and own_net = make () in
      Routes.share (Netsim.routes shared_net) table;
      let both f =
        f shared_net;
        f own_net
      in
      let agree () =
        routes_agree (Netsim.routes shared_net) (Netsim.routes own_net) n
      in
      let partial_queries () =
        for _ = 1 to 4 do
          let src = Prng.int rng n and dst = Prng.int rng n in
          both (fun net -> ignore (Routes.distance (Netsim.routes net) ~src ~dst))
        done
      in
      let down_nodes () =
        List.filter
          (fun x -> not (Netsim.node_alive shared_net x))
          (List.init n Fun.id)
      in
      (* Compared field by field, never walked: a corrupted entry can
         hold a predecessor cycle, so it must be caught before [agree]
         follows its chains. *)
      let table_intact () =
        let intact = ref true in
        for s = 0 to n - 1 do
          let kept = Apsp.sl_tree table s in
          let fresh = D.run g ~metric:D.Delay ~source:s in
          for y = 0 to n - 1 do
            if
              D.dist kept y <> D.dist fresh y
              || D.other_dist kept y <> D.other_dist fresh y
              || D.parent_ix kept y <> D.parent_ix fresh y
              || D.parent_edge_ix kept y <> D.parent_edge_ix fresh y
            then intact := false
          done
        done;
        !intact
      in
      let ok = ref (agree ()) in
      for _round = 1 to 14 do
        partial_queries ();
        (match Prng.int rng 5 with
        | 0 ->
          let a, b = links.(Prng.int rng (Array.length links)) in
          both (fun net -> Netsim.fail_link net a b)
        | 1 -> (
          match Netsim.dead_link_list shared_net with
          | [] -> ()
          | dead ->
            let a, b = List.nth dead (Prng.int rng (List.length dead)) in
            both (fun net -> Netsim.restore_link net a b))
        | 2 ->
          let x = Prng.int rng n in
          both (fun net -> Netsim.fail_node net x)
        | 3 -> (
          match down_nodes () with
          | [] -> ()
          | down ->
            let x = List.nth down (Prng.int rng (List.length down)) in
            both (fun net -> Netsim.restore_node net x))
        | _ ->
          let dead = Netsim.dead_link_list shared_net and down = down_nodes () in
          both (fun net ->
              Netsim.restore_links net dead;
              List.iter (Netsim.restore_node net) down));
        partial_queries ();
        if !ok && not (table_intact () && agree ()) then ok := false
      done;
      let shared = Netsim.routes shared_net and own = Netsim.routes own_net in
      if Routes.computed shared <> Routes.computed own then ok := false;
      if Routes.shared shared = 0 || Routes.shared own <> 0 then ok := false;
      !ok && table_intact ())

(* The cache builds its edge-to-sources map at the first fault, from
   the SPTs cached then. Fills borrowed from a shared table register
   nothing before that, so the map must still come out complete: the
   first link fault drops exactly the cached sources whose tree uses
   the link (a source kept costs no fill when queried again; a dropped
   one costs one), and every answer after it equals an eager recompute
   over the surviving subgraph. *)
let prop_first_fault_drops_exactly_users =
  QCheck.Test.make
    ~name:"first fault after shared fills drops exactly the link's users"
    ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (tseed, fseed) ->
      List.for_all
        (fun g ->
          let n = G.node_count g in
          let links = base_links g in
          let rng = Prng.create ((fseed * 40503) + 11) in
          let table = Apsp.compute g in
          let net = Netsim.create (Engine.create ()) g ~classify:(fun (_ : unit) -> `Data) in
          let r = Netsim.routes net in
          Routes.share r table;
          let filled = Array.init n (fun _ -> Prng.chance rng 0.6) in
          Array.iteri (fun s f -> if f then ignore (Routes.spt r ~src:s)) filled;
          let a, b = links.(Prng.int rng (Array.length links)) in
          let e = G.edge_id_ix g a b in
          let uses s =
            let t = Apsp.sl_tree table s in
            D.parent_edge_ix t a = e || D.parent_edge_ix t b = e
          in
          let users = List.filter (fun s -> filled.(s) && uses s) (List.init n Fun.id) in
          let no_fault_fill = Routes.computed r = Routes.shared r in
          Netsim.fail_link net a b;
          let dropped_count = Routes.invalidated r = List.length users in
          let exactly_users =
            List.for_all
              (fun s ->
                let before = Routes.computed r in
                ignore (Routes.spt r ~src:s);
                let refilled = Routes.computed r > before in
                refilled = ((not filled.(s)) || List.mem s users))
              (List.init n Fun.id)
          in
          no_fault_fill && dropped_count && exactly_users
          && routes_agree r (eager_routes net) n)
        (graphs_of_seed tseed))

let checki = Alcotest.check Alcotest.int

let test_invalidation_is_selective () =
  (* A fault must not wipe the whole cache: entries whose answers the
     fault cannot change survive it. Triangle with one slow detour. *)
    let bld = G.Builder.create 3 in
  G.Builder.add_link bld 0 1 ~delay:1.0 ~cost:1.0;
  G.Builder.add_link bld 1 2 ~delay:1.0 ~cost:1.0;
  G.Builder.add_link bld 0 2 ~delay:10.0 ~cost:1.0;
  let g = G.Builder.freeze bld in
  let engine = Engine.create () in
  let net = Netsim.create engine g ~classify:(fun (_ : unit) -> `Data) in
  let r = Netsim.routes net in
  ignore (Routes.spt r ~src:0);
  ignore (Routes.spt r ~src:2);
  checki "two SPTs built" 2 (Routes.computed r);
  (* neither tree uses the slow 0-2 link: its death drops nothing *)
  Netsim.fail_link net 0 2;
  checki "no entry dropped" 0 (Routes.invalidated r);
  checki "entries kept" 2 (Routes.cached r);
  checki "epoch still advanced" 1 (Netsim.routes_epoch net);
  (* nor can restoring it shorten anything (10 beats no label) *)
  Netsim.restore_link net 0 2;
  checki "restore drops nothing" 0 (Routes.invalidated r);
  (* the link 0-1 is in both trees: its death drops both *)
  Netsim.fail_link net 0 1;
  checki "both dropped" 2 (Routes.invalidated r);
  checki "cache empty" 0 (Routes.cached r);
  checki "no recompute until re-queried" 2 (Routes.computed r)

let () =
  Alcotest.run "routing_cache"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_netsim_differential;
          QCheck_alcotest.to_alcotest prop_apsp_differential;
          QCheck_alcotest.to_alcotest prop_next_hop_matches_path;
          QCheck_alcotest.to_alcotest prop_shared_routes_differential;
          QCheck_alcotest.to_alcotest prop_first_fault_drops_exactly_users;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "selective invalidation" `Quick
            test_invalidation_is_selective;
        ] );
    ]
