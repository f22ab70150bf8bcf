(* Seeded-mutation tests for the correctness layer (lib/check).

   Method: start from a healthy view of a small known network, corrupt
   it in exactly one way (cycle, orphan child, stale forwarding entry,
   duplicate delivery, ...) and assert the matching invariant — and a
   precise diagnostic — fires. Same drill for the lint: feed each rule
   a minimal offending source and a minimal clean one. Finally the lint
   CLI itself is exercised end-to-end to prove [dune build @lint] turns
   a seeded violation into a non-zero exit. *)

module I = Check.Invariant
module L = Check.Lint
module G = Netgraph.Graph
module Runner = Protocols.Runner
module Prng = Scmp_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let has_rule r vs = List.exists (fun (x : I.violation) -> x.I.rule = r) vs

let diagnostic_mentions sub vs =
  List.exists (fun (x : I.violation) -> contains x.I.detail sub) vs

(* ---------------- fixture: a healthy group ----------------

   Diamond network 0-(1,2), 1-3, 2-4 plus an off-tree stub 2-5; the
   m-router at 0 serves members 3 and 4 (multicast delay 2.0 each). *)

let network () =
    let bld = G.Builder.create 6 in
  G.Builder.add_link bld 0 1 ~delay:1.0 ~cost:1.0;
  G.Builder.add_link bld 0 2 ~delay:1.0 ~cost:1.0;
  G.Builder.add_link bld 1 3 ~delay:1.0 ~cost:1.0;
  G.Builder.add_link bld 2 4 ~delay:1.0 ~cost:1.0;
  G.Builder.add_link bld 2 5 ~delay:1.0 ~cost:1.0;
  let g = G.Builder.freeze bld in
  g

let healthy_tree () =
  {
    I.graph = network ();
    root = 0;
    parent = [ (1, 0); (2, 0); (3, 1); (4, 2) ];
    children = [ (0, [ 1; 2 ]); (1, [ 3 ]); (2, [ 4 ]); (3, []); (4, []) ];
    members = [ 3; 4 ];
  }

let healthy_entries () =
  [
    { I.router = 0; upstream = None; downstream = [ 1; 2 ]; member = false; epoch = 1 };
    { I.router = 1; upstream = Some 0; downstream = [ 3 ]; member = false; epoch = 1 };
    { I.router = 2; upstream = Some 0; downstream = [ 4 ]; member = false; epoch = 1 };
    { I.router = 3; upstream = Some 1; downstream = []; member = true; epoch = 1 };
    { I.router = 4; upstream = Some 2; downstream = []; member = true; epoch = 1 };
  ]

let healthy_snapshot () =
  {
    I.group = 1;
    mrouter = 0;
    auth_epoch = 1;
    tree = Some (healthy_tree ());
    limit = 2.0;
    entries = healthy_entries ();
    dead_links = [];
  }

(* ---------------- I1: tree well-formedness ---------------- *)

let test_healthy_passes () =
  checkb "verify_all ok" true (I.verify_all [ healthy_snapshot () ] = Ok ())

let test_cycle_flagged () =
  (* Detach the 3<->4 pair from the root and make them each other's
     parent: a cycle unreachable from the root. *)
  let t =
    {
      (healthy_tree ()) with
      I.parent = [ (1, 0); (2, 0); (3, 4); (4, 3) ];
      children = [ (0, [ 1; 2 ]); (1, []); (2, []); (3, [ 4 ]); (4, [ 3 ]) ];
    }
  in
  let vs = I.check_tree t in
  checkb "tree-wf fires" true (has_rule "tree-wf" vs);
  checkb "diagnostic names the detached nodes" true
    (diagnostic_mentions "3" vs && diagnostic_mentions "4" vs)

let test_reachable_cycle_flagged () =
  (* Root's own child list points back at a node that also claims a
     deeper position: 1 is both child of 0 and of 3 (two parents). *)
  let t =
    {
      (healthy_tree ()) with
      I.parent = [ (1, 0); (2, 0); (3, 1); (4, 2); (1, 3) ];
      children = [ (0, [ 1; 2 ]); (1, [ 3 ]); (2, [ 4 ]); (3, [ 1 ]); (4, []) ];
    }
  in
  let vs = I.check_tree t in
  checkb "tree-wf fires" true (has_rule "tree-wf" vs);
  checkb "diagnostic: two parent records" true
    (diagnostic_mentions "two parent records" vs)

let test_orphan_child_flagged () =
  (* 1 lists 3 as downstream but 3 has no parent record. *)
  let t =
    { (healthy_tree ()) with I.parent = [ (1, 0); (2, 0); (4, 2) ] }
  in
  let vs = I.check_tree t in
  checkb "tree-wf fires" true (has_rule "tree-wf" vs);
  checkb "diagnostic: missing parent record" true
    (diagnostic_mentions "without a parent record" vs)

let test_nonlink_tree_edge_flagged () =
  (* Re-parent 4 under 1: 1-4 is not a link of the diamond. *)
  let t =
    {
      (healthy_tree ()) with
      I.parent = [ (1, 0); (2, 0); (3, 1); (4, 1) ];
      children = [ (0, [ 1; 2 ]); (1, [ 3; 4 ]); (2, []); (3, []); (4, []) ];
    }
  in
  let vs = I.check_tree t in
  checkb "tree-wf fires" true (has_rule "tree-wf" vs);
  checkb "diagnostic: not a graph link" true
    (diagnostic_mentions "not a graph link" vs)

(* ---------------- I2: delay bound ---------------- *)

let test_delay_bound () =
  let t = healthy_tree () in
  checki "within bound: clean" 0 (List.length (I.check_delay_bound t ~limit:2.0));
  checki "unconstrained: clean" 0
    (List.length (I.check_delay_bound t ~limit:infinity));
  let vs = I.check_delay_bound t ~limit:1.5 in
  checkb "delay-bound fires" true (has_rule "delay-bound" vs);
  checki "both members flagged" 2 (List.length vs);
  checkb "diagnostic carries the bound" true (diagnostic_mentions "1.5" vs)

(* ---------------- I3: entry/tree coherence ---------------- *)

let test_stale_entry_flagged () =
  (* Off-tree router 5 kept a forwarding entry a PRUNE should have
     removed. *)
  let s =
    {
      (healthy_snapshot ()) with
      I.entries =
        healthy_entries ()
        @ [ { I.router = 5; upstream = Some 2; downstream = []; member = false; epoch = 1 } ];
    }
  in
  let vs = I.check_coherence s in
  checkb "entry-coherence fires" true (has_rule "entry-coherence" vs);
  checkb "diagnostic: stale entry at router 5" true
    (diagnostic_mentions "off-tree router 5" vs && diagnostic_mentions "stale" vs)

let test_missing_downstream_flagged () =
  (* Router 1 lost its downstream record for member 3: the union of
     downstream links no longer rebuilds the m-router's edge set. *)
  let s =
    {
      (healthy_snapshot ()) with
      I.entries =
        List.map
          (fun (e : I.entry_view) ->
            if e.I.router = 1 then { e with I.downstream = [] } else e)
          (healthy_entries ());
    }
  in
  let vs = I.check_coherence s in
  checkb "entry-coherence fires" true (has_rule "entry-coherence" vs);
  checkb "diagnostic names router 1" true (diagnostic_mentions "router 1" vs)

let test_wrong_upstream_flagged () =
  (* Router 4 points at 1 while the tree says its parent is 2. *)
  let s =
    {
      (healthy_snapshot ()) with
      I.entries =
        List.map
          (fun (e : I.entry_view) ->
            if e.I.router = 4 then { e with I.upstream = Some 1 } else e)
          (healthy_entries ());
    }
  in
  let vs = I.check_coherence s in
  checkb "entry-coherence fires" true (has_rule "entry-coherence" vs);
  checkb "diagnostic shows both parents" true (diagnostic_mentions "upstream" vs)

let reports_rule r s =
  match I.verify_all [ s ] with Ok () -> false | Error report -> contains report r

let test_verify_all_reports_rule_names () =
  let s = { (healthy_snapshot ()) with I.limit = 1.5 } in
  match I.verify_all [ s ] with
  | Ok () -> Alcotest.fail "expected a violation report"
  | Error report -> checkb "report names the rule" true (contains report "delay-bound")

(* ---------------- I6: tree over live links only ---------------- *)

let test_tree_over_dead_link_flagged () =
  (* The 2-4 tree edge crosses a failed link (reported in either
     orientation); a repaired tree would have routed around it. *)
  let s = { (healthy_snapshot ()) with I.dead_links = [ (4, 2) ] } in
  let vs = I.check_live_links s in
  checkb "tree-live-links fires" true (has_rule "tree-live-links" vs);
  checkb "diagnostic names the edge" true (diagnostic_mentions "2-4" vs);
  checkb "verify_all reports the rule" true
    (reports_rule "tree-live-links" s);
  checki "dead off-tree link is fine" 0
    (List.length
       (I.check_live_links
          { (healthy_snapshot ()) with I.dead_links = [ (2, 5) ] }))

(* ---------------- I7: stale-epoch entries ---------------- *)

let test_stale_epoch_flagged () =
  (* The authority moved to epoch 2 but router 4 still holds an entry
     installed by the deposed regime. *)
  let s =
    {
      (healthy_snapshot ()) with
      I.auth_epoch = 2;
      entries =
        List.map
          (fun (e : I.entry_view) ->
            { e with I.epoch = (if e.I.router = 4 then 1 else 2) })
          (healthy_entries ());
    }
  in
  let vs = I.check_epochs s in
  checkb "stale-epoch fires" true (has_rule "stale-epoch" vs);
  checki "only the stale router flagged" 1 (List.length vs);
  checkb "diagnostic names router and epochs" true
    (diagnostic_mentions "router 4" vs && diagnostic_mentions "epoch 1" vs);
  checkb "verify_all reports the rule" true (reports_rule "stale-epoch" s);
  checki "uniform current-epoch entries pass" 0
    (List.length
       (I.check_epochs
          {
            (healthy_snapshot ()) with
            I.auth_epoch = 2;
            entries =
              List.map
                (fun (e : I.entry_view) -> { e with I.epoch = 2 })
                (healthy_entries ());
          }))

(* ---------------- I4: packet conservation ---------------- *)

let test_delivery_counters () =
  let clean =
    { I.expected = 10; delivered = 10; duplicates = 0; spurious = 0; missed = 0 }
  in
  checki "clean counters pass" 0 (List.length (I.check_delivery clean));
  let dup = { clean with I.delivered = 11; duplicates = 1 } in
  let vs = I.check_delivery dup in
  checkb "packet-conservation fires" true (has_rule "packet-conservation" vs);
  checkb "diagnostic: duplicate" true (diagnostic_mentions "duplicate" vs);
  let missed = { clean with I.delivered = 9; missed = 1 } in
  checkb "missed delivery flagged" true
    (has_rule "packet-conservation" (I.check_delivery missed))

(* ---------------- lint: rule-by-rule ---------------- *)

let lint_rules vs =
  List.sort_uniq String.compare (List.map (fun (x : L.violation) -> x.L.rule) vs)

let test_lint_poly_compare () =
  let vs = L.scan_ml ~path:"lib/mtree/x.ml" "let xs = List.sort compare ys\n" in
  Alcotest.check
    Alcotest.(list string)
    "poly-compare fires"
    [ "poly-compare" ]
    (lint_rules vs);
  checki "at line 1" 1 (List.hd vs).L.line;
  checki "Int.compare is fine" 0
    (List.length (L.scan_ml ~path:"lib/mtree/x.ml" "let xs = List.sort Int.compare ys\n"))

let test_lint_hashtbl_find () =
  let vs = L.scan_ml ~path:"lib/core/x.ml" "let v = Hashtbl.find tbl k\n" in
  Alcotest.check
    Alcotest.(list string)
    "hashtbl-find fires"
    [ "hashtbl-find" ]
    (lint_rules vs);
  checki "find_opt is fine" 0
    (List.length (L.scan_ml ~path:"lib/core/x.ml" "let v = Hashtbl.find_opt tbl k\n"))

let test_lint_failwith_scope () =
  let src = "let f () = failwith \"boom\"\n" in
  checkb "failwith flagged under lib/protocols" true
    (has_rule "failwith-hot-path"
       (List.map
          (fun (x : L.violation) -> { I.rule = x.L.rule; detail = x.L.message })
          (L.scan_ml ~path:"lib/protocols/x.ml" src)));
  checki "failwith allowed outside the hot path" 0
    (List.length (L.scan_ml ~path:"lib/mtree/x.ml" src))

let test_lint_suppression_and_literals () =
  checki "lint: allow marker suppresses" 0
    (List.length
       (L.scan_ml ~path:"lib/mtree/x.ml"
          "let xs = List.sort compare ys (* lint: allow poly-compare *)\n"));
  checki "comments and strings never trip rules" 0
    (List.length
       (L.scan_ml ~path:"lib/protocols/x.ml"
          "(* List.sort compare; Hashtbl.find; failwith *)\nlet s = \"failwith\"\n"))

(* A file that does not parse cannot build under the strict flags:
   it gets exactly one Error [parse-failure] finding and no rule runs
   on it — not even on the lines before the syntax error. *)
let test_lint_parse_failure () =
  let vs =
    L.scan_ml ~path:"lib/mtree/x.ml" "let z = List.sort compare [1]\nlet q = (\n"
  in
  checki "exactly one finding" 1 (List.length vs);
  Alcotest.check
    Alcotest.(list string)
    "only parse-failure" [ "parse-failure" ] (lint_rules vs);
  checkb "at severity Error" true
    (List.for_all (fun (v : L.violation) -> v.L.severity = L.Error) vs);
  checkb "rule severity is Error" true
    (L.severity_of_rule "parse-failure" = L.Error)

let test_lint_raw_transmit () =
  let src = "let () = Eventsim.Netsim.transmit net ~from:0 1 msg\n" in
  checkb "raw transmit flagged outside the protocol layer" true
    (List.exists
       (fun (x : L.violation) -> x.L.rule = "raw-transmit")
       (L.scan_ml ~path:"bin/x.ml" src));
  checkb "short spelling flagged too" true
    (List.exists
       (fun (x : L.violation) -> x.L.rule = "raw-transmit")
       (L.scan_ml ~path:"bin/x.ml" "let () = Netsim.transmit net ~from:0 1 m\n"));
  checki "allowed inside lib/protocols" 0
    (List.length (L.scan_ml ~path:"lib/protocols/x.ml" src));
  checki "allowed inside lib/eventsim" 0
    (List.length (L.scan_ml ~path:"lib/eventsim/x.ml" src))

let test_lint_raw_fault () =
  let has vs =
    List.exists (fun (x : L.violation) -> x.L.rule = "raw-fault") vs
  in
  let src = "let () = Eventsim.Netsim.fail_link net 0 1\n" in
  checkb "raw fail_link flagged outside eventsim" true
    (has (L.scan_ml ~path:"lib/protocols/x.ml" src));
  checkb "short spelling flagged too" true
    (has (L.scan_ml ~path:"bin/x.ml" "let () = Netsim.fail_node net 3\n"));
  checkb "batch primitive flagged" true
    (has
       (L.scan_ml ~path:"lib/exec/x.ml"
          "let () = Netsim.restore_links net cut\n"));
  checki "allowed inside lib/eventsim (Faults lives there)" 0
    (List.length (L.scan_ml ~path:"lib/eventsim/faults.ml" src));
  checki "the Faults wrapper itself never matches" 0
    (List.length
       (L.scan_ml ~path:"lib/exec/x.ml"
          "let f = Eventsim.Faults.install net faults\n"))

let test_lint_domain_safety () =
  let has vs = List.exists (fun (x : L.violation) -> x.L.rule = "domain-safety") vs in
  (* concurrency primitives outside lib/exec *)
  checkb "Domain.spawn flagged outside exec" true
    (has (L.scan_ml ~path:"lib/mtree/x.ml" "let d = Domain.spawn f\n"));
  checkb "Mutex flagged outside exec" true
    (has (L.scan_ml ~path:"lib/obs/x.ml" "let () = Mutex.lock m\n"));
  checkb "Atomic flagged outside exec" true
    (has (L.scan_ml ~path:"bin/x.ml" "let c = Atomic.make 0\n"));
  checki "allowed inside lib/exec" 0
    (List.length
       (L.scan_ml ~path:"lib/exec/pool.ml"
          "let d = Domain.spawn f\nlet () = Mutex.lock m\n"));
  (* top-level mutable state in library modules *)
  checkb "top-level ref flagged" true
    (has (L.scan_ml ~path:"lib/core/x.ml" "let state = ref 0\n"));
  checkb "top-level Hashtbl flagged" true
    (has (L.scan_ml ~path:"lib/core/x.ml"
            "let registry : (string, int) Hashtbl.t = Hashtbl.create 8\n"));
  checki "function definitions never match" 0
    (List.length
       (L.scan_ml ~path:"lib/obs/x.ml"
          "let create () = { tbl = Hashtbl.create 32; order = [] }\n"));
  checki "indented (local) mutable state is fine" 0
    (List.length
       (L.scan_ml ~path:"lib/core/x.ml" "let f () =\n  let acc = ref 0 in !acc\n"));
  checki "suppression marker honoured" 0
    (List.length
       (L.scan_ml ~path:"lib/core/x.ml"
          "let state = ref 0 (* lint: allow domain-safety *)\n"))

let test_lint_dune_flags () =
  let vs = L.scan_dune ~path:"lib/mtree/dune" "(library\n (name mtree))\n" in
  Alcotest.check
    Alcotest.(list string)
    "dune-strict-flags fires"
    [ "dune-strict-flags" ]
    (lint_rules vs);
  checki "strict file passes" 0
    (List.length
       (L.scan_dune ~path:"lib/mtree/dune"
          "(library\n (name mtree)\n (flags (:standard -w +a-4-9-40-41-42-44-45-70 -warn-error +8+26+27+32+33)))\n"));
  Alcotest.check
    Alcotest.(list string)
    "a flag only inside a ; comment does not count"
    [ "dune-strict-flags" ]
    (lint_rules
       (L.scan_dune ~path:"lib/foo/dune"
          "; TODO add -warn-error flags\n(library (name foo))\n"))

(* ---------------- lint: determinism & domain hazards ----------------

   The D1-D6 pass rides the parsetree: each rule gets a firing case
   and a structurally close near-miss that the old line-regex scanner
   could not have told apart. *)

let fires rule path src =
  List.exists (fun (x : L.violation) -> x.L.rule = rule) (L.scan_ml ~path src)

let test_lint_hashtbl_iter_order () =
  checkb "unsorted fold building a list fires" true
    (fires "hashtbl-iter-order" "lib/core/x.ml"
       "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n");
  checkb "fold piped into a sort: clean" false
    (fires "hashtbl-iter-order" "lib/core/x.ml"
       "let keys tbl =\n\
       \  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare\n");
  checkb "sort applied directly to the fold: clean" false
    (fires "hashtbl-iter-order" "lib/core/x.ml"
       "let keys tbl =\n\
       \  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])\n");
  checkb "commutative fold (no cons): clean" false
    (fires "hashtbl-iter-order" "lib/core/x.ml"
       "let total tbl = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0\n");
  checkb "iter emitting into the Obs layer fires" true
    (fires "hashtbl-iter-order" "lib/core/x.ml"
       "let dump m tbl = Hashtbl.iter (fun k v -> Metrics.set m k v) tbl\n");
  checkb "iter accumulating a list via := fires" true
    (fires "hashtbl-iter-order" "lib/core/x.ml"
       "let keys tbl =\n\
       \  let acc = ref [] in\n\
       \  Hashtbl.iter (fun k _ -> acc := k :: !acc) tbl;\n\
       \  !acc\n");
  checkb "order-insensitive effectful iter: clean" false
    (fires "hashtbl-iter-order" "lib/core/x.ml"
       "let drop_all other tbl = Hashtbl.iter (fun k _ -> Hashtbl.remove other k) tbl\n")

let test_lint_wallclock () =
  let src = "let now () = Unix.gettimeofday ()\n" in
  checkb "Unix.gettimeofday outside lib/obs fires" true
    (fires "wallclock-outside-obs" "lib/core/x.ml" src);
  checkb "Sys.time fires too" true
    (fires "wallclock-outside-obs" "bin/x.ml" "let t = Sys.time ()\n");
  checkb "allowed inside lib/obs (Obs.Clock's home)" false
    (fires "wallclock-outside-obs" "lib/obs/clock.ml" src);
  checkb "severity is Error" true (L.severity_of_rule "wallclock-outside-obs" = L.Error)

(* A rule's scope is a directory, not a substring of the path: a file
   whose name merely contains "obs" or "exec" is outside those layers. *)
let test_lint_scope_is_a_directory () =
  checkb "lib/core/observer.ml is not in lib/obs" true
    (fires "wallclock-outside-obs" "lib/core/observer.ml"
       "let now () = Unix.gettimeofday ()\n");
  checkb "lib/core/executor.ml is not in lib/exec" true
    (fires "domain-safety" "lib/core/executor.ml" "let d = Domain.spawn f\n");
  checkb "a library module under an absolute root is in lib" true
    (fires "domain-safety" "/src/scmp/lib/core/x.ml" "let state = ref 0\n")

let test_lint_unseeded_random () =
  checkb "Random.self_init fires" true
    (fires "unseeded-random" "lib/core/x.ml"
       "let () = Random.self_init ()\n");
  checkb "Random.int fires" true
    (fires "unseeded-random" "bin/x.ml" "let pick n = Random.int n\n");
  checkb "seeded Prng stream: clean" false
    (fires "unseeded-random" "lib/core/x.ml"
       "let pick rng n = Scmp_util.Prng.int rng n\n")

let test_lint_catchall () =
  checkb "with _ -> fires" true
    (fires "catchall-exn" "lib/core/x.ml" "let f g = try g () with _ -> 0\n");
  checkb "bound-but-dropped exception fires" true
    (fires "catchall-exn" "lib/core/x.ml" "let f g = try g () with exn -> 0\n");
  checkb "specific exception: clean" false
    (fires "catchall-exn" "lib/core/x.ml"
       "let f g = try g () with Not_found -> 0\n");
  checkb "re-wrapped exception: clean" false
    (fires "catchall-exn" "lib/core/x.ml"
       "let f g = try Ok (g ()) with e -> Error e\n")

let test_lint_physical_eq () =
  checkb "== fires" true
    (fires "physical-eq" "lib/core/x.ml" "let same a b = a == b\n");
  checkb "!= fires" true
    (fires "physical-eq" "lib/core/x.ml" "let diff a b = a != b\n");
  checkb "structural = is clean" false
    (fires "physical-eq" "lib/core/x.ml" "let same a b = a = b\n")

let test_lint_exec_capture () =
  checkb "captured top-level table fires" true
    (fires "exec-capture" "lib/core/x.ml"
       "let tbl : (int, int) Hashtbl.t = Hashtbl.create 8 (* lint: allow domain-safety *)\n\
        let run pool xs = Pool.map pool xs ~f:(fun x -> Hashtbl.add tbl x x; x)\n");
  checkb "mutating a captured ref fires" true
    (fires "exec-capture" "lib/core/x.ml"
       "let run pool xs =\n\
       \  let acc = ref [] in\n\
       \  Pool.map pool xs ~f:(fun x -> acc := x :: !acc)\n");
  checkb "per-task local table: clean" false
    (fires "exec-capture" "lib/core/x.ml"
       "let run pool xs =\n\
       \  Pool.map pool xs ~f:(fun x ->\n\
       \    let t = Hashtbl.create 4 in\n\
       \    Hashtbl.add t x x;\n\
       \    Hashtbl.length t)\n");
  checkb "with_pool callback runs on the submitter: clean" false
    (fires "exec-capture" "lib/core/x.ml"
       "let run xs f =\n\
       \  let acc = ref [] in\n\
       \  Pool.with_pool ~jobs:2 (fun _pool -> acc := f xs :: !acc)\n")

let test_lint_graph_freeze () =
  checkb "Builder use in eventsim fires" true
    (fires "graph-freeze" "lib/eventsim/x.ml"
       "let grow b u v = Netgraph.Graph.Builder.add_link b ~u ~v ~delay:1.0 ~cost:1.0\n");
  checkb "aliased G.Builder fires too" true
    (fires "graph-freeze" "lib/protocols/x.ml"
       "module G = Netgraph.Graph\nlet fresh () = G.Builder.create ~n:4 ()\n");
  checkb "same code inside lib/topology: clean (builders' home)" false
    (fires "graph-freeze" "lib/topology/x.ml"
       "let grow b u v = Netgraph.Graph.Builder.add_link b ~u ~v ~delay:1.0 ~cost:1.0\n");
  checkb "same code inside lib/netgraph: clean" false
    (fires "graph-freeze" "lib/netgraph/x.ml"
       "let fresh () = Graph.Builder.create ~n:4 ()\n");
  checkb "unrelated Builder submodule: clean" false
    (fires "graph-freeze" "lib/eventsim/x.ml"
       "let p = Pipeline.Builder.create ()\n");
  checkb "consuming the frozen graph: clean" false
    (fires "graph-freeze" "lib/eventsim/x.ml"
       "let d g u v = Netgraph.Graph.link_delay_opt g ~u ~v\n");
  checkb "severity is Error" true
    (L.severity_of_rule "graph-freeze" = L.Error)

let test_lint_raw_engine_queue () =
  (* the event-kernel ownership rule: queue structures inside
     lib/eventsim live in engine.ml only *)
  checkb "Heap frontier in netsim fires" true
    (fires "raw-engine-queue" "lib/eventsim/netsim.ml"
       "let q = Scmp_util.Heap.create ()\n");
  checkb "short spelling fires too" true
    (fires "raw-engine-queue" "lib/eventsim/faults.ml"
       "let () = Heap.add q ~key:1.0 thunk\n");
  checkb "qualified radix heap outside engine.ml fires" true
    (fires "raw-engine-queue" "lib/eventsim/x.ml"
       "let q = Scmp_util.Radix_heap.create ()\n");
  checkb "engine.ml itself: clean (the queue's owner)" false
    (fires "raw-engine-queue" "lib/eventsim/engine.ml"
       "let q = Scmp_util.Radix_heap.create ()\n");
  checkb "outside lib/eventsim: clean (tests and benches may oracle)" false
    (fires "raw-engine-queue" "lib/mtree/x.ml"
       "let q = Scmp_util.Heap.create ()\n");
  checkb "near-miss: Engine scheduling is the sanctioned path" false
    (fires "raw-engine-queue" "lib/eventsim/netsim.ml"
       "let () = Engine.schedule e ~delay:1.0 thunk\n");
  checkb "radix heap outside engine.ml fires" true
    (fires "raw-engine-queue" "lib/eventsim/x.ml"
       "let h = Radix_heap.create ()\n");
  checkb "Dijkstra's radix heap in lib/netgraph: clean" false
    (fires "raw-engine-queue" "lib/netgraph/dijkstra.ml"
       "let h = Scmp_util.Radix_heap.create ()\n");
  checkb "severity is Error" true
    (L.severity_of_rule "raw-engine-queue" = L.Error)

let test_lint_quoted_strings () =
  (* regression: the old scanner did not blank {|...|} payloads, so a
     quoted string containing Stdlib.compare tripped poly-compare *)
  checkb "quoted-string payload never trips rules" false
    (fires "poly-compare" "lib/core/x.ml"
       "let doc = {|List.sort Stdlib.compare xs|}\n");
  checkb "tagged quoted string too" false
    (fires "poly-compare" "lib/core/x.ml"
       "let doc = {example|Stdlib.compare|example}\n")

(* ---------------- lint: the CLI end-to-end ----------------

   The @lint alias runs bin/scmp_lint.exe over lib/ and bin/; here the
   same executable is pointed at seeded directories to prove the exit
   codes the alias relies on: 1 on violation, 0 on clean, 2 on a
   missing root. *)

(* Beside this test's own build directory, whatever the working
   directory it runs from. *)
let lint_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "scmp_lint.exe" ]

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let fresh_dir name =
  let root = Filename.concat (Filename.get_temp_dir_name ()) name in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)));
  ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote (Filename.concat root "lib"))));
  root

let run_lint_on dir =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote lint_exe) (Filename.quote dir))

let test_cli_seeded_violation_fails () =
  checkb "lint executable built" true (Sys.file_exists lint_exe);
  let root = fresh_dir "scmp_lint_seed_bad" in
  write_file
    (Filename.concat (Filename.concat root "lib") "bad.ml")
    "let xs = List.sort compare ys\n";
  checki "exit 1 on seeded violation" 1 (run_lint_on root)

let test_cli_clean_tree_passes () =
  let root = fresh_dir "scmp_lint_seed_good" in
  let lib = Filename.concat root "lib" in
  write_file (Filename.concat lib "good.ml") "let answer = 42\n";
  write_file (Filename.concat lib "good.mli") "val answer : int\n";
  checki "exit 0 on clean tree" 0 (run_lint_on root);
  checki "exit 2 on missing root" 2
    (run_lint_on (Filename.concat root "no_such_dir"))

(* ---------------- lint: baseline & report determinism ---------------- *)

let seeded_warn_tree name =
  let root = fresh_dir name in
  let lib = Filename.concat root "lib" in
  write_file (Filename.concat lib "warny.ml")
    "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n";
  write_file (Filename.concat lib "warny.mli")
    "val keys : (int, int) Hashtbl.t -> int list\n";
  root

let test_baseline_roundtrip () =
  let root = seeded_warn_tree "scmp_lint_baseline" in
  let s = L.scan [ root ] in
  checki "exactly the one Warn finding" 1 (List.length s.L.findings);
  let v = List.hd s.L.findings in
  checkb "it is the D1 rule" true (v.L.rule = "hashtbl-iter-order");
  checkb "at Warn severity" true (v.L.severity = L.Warn);
  checki "gates against an empty baseline" 1
    (List.length (L.diff_baseline (L.empty_baseline ()) s.L.findings));
  (* round-trip through the scmp-lint/1 document itself *)
  let doc = Obs.Json.to_string ~pretty:true (L.to_json s) in
  (match L.baseline_of_string doc with
  | Ok b ->
    checki "round-tripped baseline absorbs it" 0
      (List.length (L.diff_baseline b s.L.findings))
  | Error e -> Alcotest.fail e);
  checkb "garbage document rejected" true
    (match L.baseline_of_string "{\"nope\": 1}" with
    | Error _ -> true
    | Ok _ -> false)

let test_unused_suppression_audit () =
  let root = fresh_dir "scmp_lint_unused" in
  let lib = Filename.concat root "lib" in
  write_file (Filename.concat lib "x.ml")
    "let answer = 42 (* lint: allow poly-compare *)\n";
  write_file (Filename.concat lib "x.mli") "val answer : int\n";
  let s = L.scan [ root ] in
  checki "one finding" 1 (List.length s.L.findings);
  let v = List.hd s.L.findings in
  checkb "unused-suppression fires" true (v.L.rule = "unused-suppression");
  checkb "as an Error (always gates)" true (v.L.severity = L.Error);
  checki "rule filter skips the audit" 0
    (List.length (L.scan ~rules:[ "poly-compare" ] [ root ]).L.findings)

let test_json_determinism () =
  let root = seeded_warn_tree "scmp_lint_json" in
  let render s = Obs.Json.to_string ~pretty:true (L.to_json s) in
  let j1 = render (L.scan [ root ]) and j2 = render (L.scan [ root ]) in
  checkb "two scans serialize byte-identically" true (j1 = j2);
  checkb "schema tag present" true (contains j1 "scmp-lint/1");
  checkb "wallclock section excluded by default" false (contains j1 "scan_s");
  checkb "wallclock section present on request" true
    (contains
       (Obs.Json.to_string (L.to_json ~wallclock:true (L.scan [ root ])))
       "scan_s")

(* ---------------- lint: unused-export ----------------

   A seeded project tree: one library interface whose values are each
   used in exactly one way, and consumers in the directories beside
   [lib]. The rule matches names, so every indirect use below must
   count; only the test-only and self-only values are findings. *)

let unused_export_tree name =
  let root = fresh_dir name in
  let dir d = Filename.concat root d in
  List.iter
    (fun d -> ignore (Sys.command ("mkdir -p " ^ Filename.quote (dir d))))
    [ "lib/m"; "bin"; "bench"; "test"; "examples" ];
  write_file (Filename.concat (dir "lib/m") "mod_a.mli")
    "val via_alias : int
     val via_open : unit -> int
     val via_include : int
     val via_fcm : int
     val via_bench : int
     val only_test : int
     val only_self : int
     val kept : int (* lint: allow unused-export: introspection fixture *)
     val stale : int (* lint: allow unused-export: stale marker *)
";
  write_file (Filename.concat (dir "lib/m") "mod_a.ml")
    "let via_alias = 1
     let via_open () = 2
     let via_include = 3
     let via_fcm = 4
     let via_bench = 5
     let only_test = 6
     let only_self = 7
     let kept = only_self
     let stale = 9
";
  write_file (Filename.concat (dir "bin") "main.ml")
    "module A = Mod_a
     let x = A.via_alias
     let y = Mod_a.(via_open ())
     module type S = sig val via_fcm : int end
     let m = (module Mod_a : S)
     let z = let module M = (val m : S) in M.via_fcm
     let w = Mod_a.stale
";
  write_file (Filename.concat (dir "examples") "ex.ml")
    "module B = struct include Mod_a end
let v = B.via_include
";
  write_file (Filename.concat (dir "bench") "b.ml") "let u = Mod_a.via_bench
";
  write_file (Filename.concat (dir "test") "t.ml")
    "let t = Mod_a.only_test + Mod_a.only_self
";
  root

let test_unused_export_rule () =
  let root = unused_export_tree "scmp_lint_unused_export" in
  let s = L.scan [ Filename.concat root "lib" ] in
  let names rule =
    List.filter_map
      (fun (v : L.violation) -> if v.L.rule = rule then Some v.L.line else None)
      s.L.findings
  in
  Alcotest.check Alcotest.(list int)
    "only the test-only and self-only values are unused" [ 6; 7 ]
    (names "unused-export");
  Alcotest.check Alcotest.(list int) "the marker that excuses nothing" [ 9 ]
    (names "unused-suppression");
  checki "nothing else" 3 (List.length s.L.findings);
  checkb "an Error: it always gates" true
    (List.for_all (fun (v : L.violation) -> v.L.severity = L.Error) s.L.findings);
  checki "a scan root not named lib skips the rule" 0
    (List.length
       (List.filter
          (fun (v : L.violation) -> v.L.rule = "unused-export")
          (L.scan [ root ]).L.findings))

(* ---------------- the verifier under live churn ----------------

   A full SCMP run with mid-traffic departures and [~check:true]: the
   pre-data and quiescent checkpoints must hold even while PRUNEs and
   bound-tightening re-grafts restructure the tree (the case the
   leave-repair pass in Mtree.Dcdm exists for). *)

let test_runner_churn_with_checks () =
  let spec = Topology.Waxman.generate ~seed:11 ~n:40 () in
  let apsp = Netgraph.Apsp.compute spec.Topology.Spec.graph in
  let center = Scmp.Placement.pick apsp Scmp.Placement.Min_avg_delay in
  let rng = Prng.create 5 in
  let members = Prng.sample rng 12 40 |> List.filter (fun x -> x <> center) in
  let base = Runner.make ~spec ~center ~source:(List.hd members) ~members () in
  let leavers =
    match List.rev members with
    | a :: b :: _ ->
      [ (base.Runner.data_start +. 5.2, a); (base.Runner.data_start +. 12.7, b) ]
    | _ -> []
  in
  checki "churn scenario has leavers" 2 (List.length leavers);
  let sc = { base with Runner.leavers } in
  let r = Runner.run ~check:true (Protocols.Driver.find_exn "scmp") sc in
  checki "missed" 0 r.Runner.missed;
  checki "dups" 0 r.Runner.duplicates;
  checki "spurious" 0 r.Runner.spurious

(* ---------------- the repair poll's coherence test ----------------

   SCMP's repair poll once ran its own entry/tree predicate; it is now
   I3 ({!I.check_coherence}) over [Scmp_proto.snapshot]. The old
   predicate, copied here as the oracle, read every on-tree router's
   entry whether or not the live network could observe it; the
   snapshot keeps observable entries only. The differential replays
   the repair poll's cadence after every fault that triggered a repair
   (one probe every [rto / 2], until both predicates hold or 200
   probes) on random runs with link flaps, partitions, router and
   m-router crashes, control loss and membership churn, and requires
   both predicates to agree at every probe. *)

module P = Protocols.Scmp_proto

let legacy_consistent p ~group =
  let observable =
    match List.find_opt (fun s -> s.I.group = group) (P.snapshots p) with
    | Some s -> s.I.entries
    | None -> []
  in
  match P.mrouter_tree p ~group with
  | None -> observable = []
  | Some tree ->
    List.for_all
      (fun x ->
        match P.router_state p x ~group with
        | None -> false
        | Some (up, down, member) ->
          up = Mtree.Tree.parent tree x
          && List.sort Int.compare down
             = List.sort Int.compare (Mtree.Tree.children tree x)
          && member = Mtree.Tree.is_member tree x)
      (Mtree.Tree.nodes tree)
    && List.for_all (fun e -> Mtree.Tree.on_tree tree e.I.router) observable

let coherence_differential seed =
  let n = 30 in
  let rng = Prng.create seed in
  let spec = Topology.Waxman.generate ~seed ~n () in
  let g = Topology.Spec.sim_graph spec in
  let e = Eventsim.Engine.create () in
  let net = Protocols.Message.network e g in
  Eventsim.Netsim.set_loss net { rate = 0.03; seed; only = Some `Control };
  let rto = 0.25 (* SCMP's base retransmission timeout *) in
  let p =
    P.create ~delivery:(Protocols.Delivery.create e) ~standby:1
      ~heartbeat_interval:0.5 ~takeover_after:1.5 net ~mrouter:0 ()
  in
  let members = Prng.sample rng 8 (n - 2) |> List.map (fun x -> x + 2) in
  List.iteri
    (fun i m ->
      Eventsim.Engine.schedule_at e ~time:(0.1 +. (0.2 *. float_of_int i))
        (fun () -> P.host_join p ~group:1 m))
    members;
  ignore
    (Protocols.Churn.start e ~rng:(Prng.split rng)
       ~candidates:
         (List.init (n - 2) (fun x -> x + 2)
         |> List.filter (fun x -> not (List.mem x members)))
       ~join:(fun x -> P.host_join p ~group:1 x)
       ~leave:(fun x -> P.host_leave p ~group:1 x)
       ~mean_interarrival:0.7 ~mean_holding:5.0 ~horizon:30.0);
  let crash x at back =
    [
      { Eventsim.Faults.at; event = Node_down x };
      { Eventsim.Faults.at = at +. back; event = Node_up x };
    ]
  in
  let faults =
    Eventsim.Faults.random_link_failures ~seed ~count:3 ~t0:4.0 ~t1:25.0
      ~restore_after:2.0 g
    @ Eventsim.Faults.random_partitions ~seed:(seed + 1) ~count:1 ~t0:4.0
        ~t1:25.0 ~heal_after:1.5 g
    @ crash (2 + Prng.int rng (n - 2)) (4.0 +. Prng.float rng 20.0) 3.0
    @ if Int64.logand (Prng.bits64 rng) 1L = 1L then crash 0 (4.0 +. Prng.float rng 20.0) 4.0 else []
  in
  let probes = ref 0 and disagreements = ref [] in
  let rec probe k =
    Eventsim.Engine.schedule e ~background:true ~delay:(rto /. 2.0) (fun () ->
        incr probes;
        let old_ok = legacy_consistent p ~group:1 in
        let new_ok = Result.is_ok (P.network_tree_consistent p ~group:1) in
        if old_ok <> new_ok then
          disagreements := Eventsim.Engine.now e :: !disagreements;
        if k < 200 && not (old_ok && new_ok) then probe (k + 1))
  in
  (* Bracket every fault instant: the repair count before and after the
     fault event tells whether it started a repair poll. *)
  let repairs () = (P.stats p).P.repairs in
  let before = Hashtbl.create 8 in
  List.iter
    (fun { Eventsim.Faults.at; _ } ->
      Eventsim.Engine.schedule_at e ~time:at (fun () ->
          Hashtbl.replace before at (repairs ())))
    faults;
  ignore (Eventsim.Faults.install net faults);
  List.iter
    (fun { Eventsim.Faults.at; _ } ->
      Eventsim.Engine.schedule_at e ~time:at (fun () ->
          if repairs () > Hashtbl.find before at then probe 0))
    faults;
  Eventsim.Engine.run e;
  (p, !probes, List.rev !disagreements)

let prop_coherence_matches_legacy =
  QCheck.Test.make ~count:100 ~name:"repair poll: I3 = legacy predicate"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      match coherence_differential seed with
      | _, _, [] -> true
      | _, _, t :: _ -> QCheck.Test.fail_reportf "seed %d: disagree at t=%.6f" seed t)

let test_coherence_differential_probes () =
  (* The differential is not vacuous: the fixed seeds do poll. *)
  let probes =
    List.fold_left
      (fun acc seed ->
        let _, probes, _ = coherence_differential seed in
        acc + probes)
      0 [ 1; 2; 3 ]
  in
  checkb "repair polls probed" true (probes > 0)

(* Pinned regression: in seed 8's run, a JOIN reaches the m-router
   from a DR that the group's DCDM table — built under an earlier
   fault — cannot reach, although the live network can. The m-router
   once raised [Dcdm.join]'s [Invalid_argument] out of [Engine.run]
   here; it now rebuilds the group over the current table and the run
   reaches quiescence with every invariant holding. *)
let test_join_after_restore () =
  let p, probes, disagreements = coherence_differential 8 in
  checkb "repair polls probed" true (probes > 0);
  checki "disagreements" 0 (List.length disagreements);
  match P.verify p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "quiescent invariants: %s" msg

let () =
  Alcotest.run "check"
    [
      ( "invariant-tree",
        [
          Alcotest.test_case "healthy snapshot passes" `Quick test_healthy_passes;
          Alcotest.test_case "cycle flagged" `Quick test_cycle_flagged;
          Alcotest.test_case "double parent flagged" `Quick test_reachable_cycle_flagged;
          Alcotest.test_case "orphan child flagged" `Quick test_orphan_child_flagged;
          Alcotest.test_case "non-link tree edge flagged" `Quick
            test_nonlink_tree_edge_flagged;
        ] );
      ( "invariant-delay",
        [ Alcotest.test_case "delay bound" `Quick test_delay_bound ] );
      ( "invariant-coherence",
        [
          Alcotest.test_case "stale forwarding entry flagged" `Quick
            test_stale_entry_flagged;
          Alcotest.test_case "missing downstream flagged" `Quick
            test_missing_downstream_flagged;
          Alcotest.test_case "wrong upstream flagged" `Quick test_wrong_upstream_flagged;
          Alcotest.test_case "verify_all report" `Quick test_verify_all_reports_rule_names;
        ] );
      ( "invariant-live-links",
        [
          Alcotest.test_case "tree edge over dead link flagged" `Quick
            test_tree_over_dead_link_flagged;
        ] );
      ( "invariant-epochs",
        [
          Alcotest.test_case "stale-epoch entry flagged" `Quick
            test_stale_epoch_flagged;
        ] );
      ( "invariant-delivery",
        [ Alcotest.test_case "packet conservation" `Quick test_delivery_counters ] );
      ( "lint-rules",
        [
          Alcotest.test_case "poly-compare" `Quick test_lint_poly_compare;
          Alcotest.test_case "hashtbl-find" `Quick test_lint_hashtbl_find;
          Alcotest.test_case "failwith scope" `Quick test_lint_failwith_scope;
          Alcotest.test_case "suppression and literals" `Quick
            test_lint_suppression_and_literals;
          Alcotest.test_case "parse failure" `Quick test_lint_parse_failure;
          Alcotest.test_case "raw transmit scope" `Quick test_lint_raw_transmit;
          Alcotest.test_case "raw fault-primitive scope" `Quick
            test_lint_raw_fault;
          Alcotest.test_case "domain safety" `Quick test_lint_domain_safety;
          Alcotest.test_case "dune strict flags" `Quick test_lint_dune_flags;
        ] );
      ( "lint-determinism-rules",
        [
          Alcotest.test_case "D1 hashtbl-iter-order" `Quick
            test_lint_hashtbl_iter_order;
          Alcotest.test_case "D2 wallclock-outside-obs" `Quick test_lint_wallclock;
          Alcotest.test_case "rule scopes are directories" `Quick
            test_lint_scope_is_a_directory;
          Alcotest.test_case "D3 unseeded-random" `Quick test_lint_unseeded_random;
          Alcotest.test_case "D4 catchall-exn" `Quick test_lint_catchall;
          Alcotest.test_case "D5 physical-eq" `Quick test_lint_physical_eq;
          Alcotest.test_case "D6 exec-capture" `Quick test_lint_exec_capture;
          Alcotest.test_case "graph-freeze layering" `Quick
            test_lint_graph_freeze;
          Alcotest.test_case "raw-engine-queue ownership" `Quick
            test_lint_raw_engine_queue;
          Alcotest.test_case "quoted-string regression" `Quick
            test_lint_quoted_strings;
        ] );
      ( "lint-baseline",
        [
          Alcotest.test_case "scmp-lint/1 round-trip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "unused-suppression audit" `Quick
            test_unused_suppression_audit;
          Alcotest.test_case "report determinism" `Quick test_json_determinism;
        ] );
      ( "lint-unused-export",
        [ Alcotest.test_case "indirect uses count" `Quick test_unused_export_rule ] );
      ( "lint-cli",
        [
          Alcotest.test_case "seeded violation fails the build" `Quick
            test_cli_seeded_violation_fails;
          Alcotest.test_case "clean tree passes" `Quick test_cli_clean_tree_passes;
        ] );
      ( "live-churn",
        [
          Alcotest.test_case "SCMP churn run under full checks" `Quick
            test_runner_churn_with_checks;
        ] );
      ( "repair-coherence",
        [
          Alcotest.test_case "differential probes repair polls" `Quick
            test_coherence_differential_probes;
          QCheck_alcotest.to_alcotest prop_coherence_matches_legacy;
          Alcotest.test_case "join after restore (seed 8)" `Quick
            test_join_after_restore;
        ] );
    ]
