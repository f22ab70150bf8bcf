(* Tests for the topology generators: the paper's §IV.A weight model
   (cost = Manhattan distance, delay uniform in (0, cost]) and the
   structural guarantees each generator makes. *)

module G = Netgraph.Graph
module Spec = Topology.Spec
module Prng = Scmp_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let weight_model_holds (t : Spec.t) =
  List.for_all
    (fun (l : G.link) ->
      let d = float_of_int (Spec.manhattan t.coords.(l.u) t.coords.(l.v)) in
      Float.abs (l.cost -. d) < 1e-9 && l.delay > 0.0 && l.delay <= l.cost)
    (G.links t.graph)

(* ---------------- Spec helpers ---------------- *)

let test_manhattan () =
  checki "zero" 0 (Spec.manhattan (3, 4) (3, 4));
  checki "general" 7 (Spec.manhattan (0, 0) (3, 4));
  checki "signs" 7 (Spec.manhattan (3, 4) (0, 0));
  checki "max distance" (2 * 32767) Spec.max_distance

let test_random_coords_distinct () =
  let rng = Prng.create 4 in
  let coords = Spec.random_coords rng 500 in
  let distinct = List.sort_uniq compare (Array.to_list coords) in
  checki "all positions distinct" 500 (List.length distinct);
  Array.iter
    (fun (x, y) ->
      checkb "on grid" true (x >= 0 && x <= 32767 && y >= 0 && y <= 32767))
    coords

let test_uniform_delay () =
  let rng = Prng.create 8 in
  for _ = 1 to 500 do
    let d = Spec.uniform_delay rng ~cost:100.0 in
    checkb "0 < delay <= cost" true (d > 0.0 && d <= 100.0)
  done

(* ---------------- Waxman ---------------- *)

let test_waxman_connected_and_weighted () =
  for seed = 1 to 10 do
    let t = Topology.Waxman.generate ~seed ~n:100 () in
    checkb "connected" true (G.is_connected t.graph);
    checki "node count" 100 (G.node_count t.graph);
    checkb "weight model" true (weight_model_holds t)
  done

let test_waxman_deterministic () =
  let a = Topology.Waxman.generate ~seed:5 ~n:50 () in
  let b = Topology.Waxman.generate ~seed:5 ~n:50 () in
  checki "same links" (G.link_count a.graph) (G.link_count b.graph);
  Alcotest.check Alcotest.(list (pair int int)) "same structure"
    (List.map (fun (l : G.link) -> (l.u, l.v)) (G.links a.graph))
    (List.map (fun (l : G.link) -> (l.u, l.v)) (G.links b.graph));
  let c = Topology.Waxman.generate ~seed:6 ~n:50 () in
  checkb "different seed differs" true
    (List.map (fun (l : G.link) -> (l.u, l.v)) (G.links a.graph)
    <> List.map (fun (l : G.link) -> (l.u, l.v)) (G.links c.graph))

let test_waxman_errors () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Waxman.generate: need at least two nodes") (fun () ->
      ignore (Topology.Waxman.generate ~seed:1 ~n:1 ()))

(* ---------------- Flat_random ---------------- *)

let test_flat_random_degree () =
  List.iter
    (fun target ->
      let t = Topology.Flat_random.generate ~seed:7 ~n:50 ~avg_degree:target in
      checkb "connected" true (G.is_connected t.graph);
      checkb "weight model" true (weight_model_holds t);
      Alcotest.check (Alcotest.float 0.11)
        (Printf.sprintf "mean degree ~%g" target)
        target (G.mean_degree t.graph))
    [ 3.0; 5.0 ]

let test_flat_random_errors () =
  Alcotest.check_raises "degree below tree"
    (Invalid_argument "Flat_random.generate: average degree below spanning tree")
    (fun () -> ignore (Topology.Flat_random.generate ~seed:1 ~n:50 ~avg_degree:1.0));
  Alcotest.check_raises "degree above complete"
    (Invalid_argument "Flat_random.generate: average degree exceeds complete graph")
    (fun () -> ignore (Topology.Flat_random.generate ~seed:1 ~n:5 ~avg_degree:4.9))

let prop_flat_random_always_connected =
  QCheck.Test.make ~name:"flat_random connected on every seed" ~count:50
    QCheck.(pair small_int (int_range 5 60))
    (fun (seed, n) ->
      let t = Topology.Flat_random.generate ~seed ~n ~avg_degree:3.0 in
      G.is_connected t.graph && weight_model_holds t)

(* ---------------- Arpanet ---------------- *)

let test_arpanet_shape () =
  let t = Topology.Arpanet.generate ~seed:1 in
  checki "48 sites" 48 (G.node_count t.graph);
  checki "site names" 48 (Array.length Topology.Arpanet.site_names);
  checki "node_count constant" 48 Topology.Arpanet.node_count;
  checkb "connected" true (G.is_connected t.graph);
  checkb "sparse" true (G.mean_degree t.graph < 3.5);
  checkb "weight model" true (weight_model_holds t)

let test_arpanet_structure_fixed () =
  let a = Topology.Arpanet.generate ~seed:1 in
  let b = Topology.Arpanet.generate ~seed:99 in
  Alcotest.check Alcotest.(list (pair int int)) "same adjacency across seeds"
    (List.map (fun (l : G.link) -> (l.u, l.v)) (G.links a.graph))
    (List.map (fun (l : G.link) -> (l.u, l.v)) (G.links b.graph));
  (* only delays vary with the seed *)
  let delays g = List.map (fun (l : G.link) -> l.delay) (G.links g) in
  checkb "delays differ across seeds" true (delays a.graph <> delays b.graph);
  let costs g = List.map (fun (l : G.link) -> l.cost) (G.links g) in
  Alcotest.check Alcotest.(list (float 0.0)) "costs fixed" (costs a.graph) (costs b.graph)

(* ---------------- Io ---------------- *)

let test_io_roundtrip () =
  List.iter
    (fun spec ->
      let text = Topology.Io.to_string spec in
      match Topology.Io.of_string text with
      | Error e -> Alcotest.failf "%s did not parse back: %s" spec.Spec.name e
      | Ok spec' ->
        Alcotest.check Alcotest.string "name" spec.Spec.name spec'.Spec.name;
        checki "nodes" (G.node_count spec.graph) (G.node_count spec'.graph);
        checkb "coords" true (spec.coords = spec'.coords);
        checkb "links (exact floats)" true
          (G.links spec.graph = G.links spec'.graph))
    [
      Topology.Waxman.generate ~seed:3 ~n:40 ();
      Topology.Arpanet.generate ~seed:2;
      Topology.Flat_random.generate ~seed:5 ~n:30 ~avg_degree:3.0;
    ]

let test_io_file_roundtrip () =
  let spec = Topology.Waxman.generate ~seed:9 ~n:20 () in
  let path = Filename.temp_file "scmp" ".topo" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Topology.Io.save spec ~path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" e);
      match Topology.Io.load ~path with
      | Ok spec' -> checki "links survive disk" (G.link_count spec.graph) (G.link_count spec'.graph)
      | Error e -> Alcotest.failf "load: %s" e)

let test_io_rejects_garbage () =
  let bad text = checkb ("rejects: " ^ String.sub text 0 (min 25 (String.length text)))
      true (Result.is_error (Topology.Io.of_string text))
  in
  bad "";
  bad "scmp-topology 2\nname x\nnodes 0\n";
  bad "scmp-topology 1\nnodes 2\ncoord 0 1 1\ncoord 1 2 2\n" (* missing name *);
  bad "scmp-topology 1\nname x\ncoord 0 1 1\n" (* missing nodes *);
  bad "scmp-topology 1\nname x\nnodes 2\ncoord 0 1 1\n" (* missing coord *);
  bad "scmp-topology 1\nname x\nnodes 2\ncoord 0 1 1\ncoord 1 2 2\n"
  (* disconnected *);
  bad
    "scmp-topology 1\nname x\nnodes 2\ncoord 0 1 1\ncoord 1 2 2\nlink 0 1 1 1\nlink 1 0 1 1\n"
  (* duplicate link *);
  bad "scmp-topology 1\nname x\nnodes 2\nwhatever\n"

(* A node-less file is an error, not a topology every consumer must
   guard (placement reads node 0), and a loaded file's connectivity
   error does not claim the graph was generated. *)
let test_io_error_messages () =
  let error_of text =
    match Topology.Io.of_string text with
    | Ok _ -> Alcotest.failf "accepted: %S" text
    | Error e -> e
  in
  Alcotest.check Alcotest.string "no nodes"
    "line 3: a topology needs at least one node"
    (error_of "scmp-topology 1\nname empty\nnodes 0\n");
  Alcotest.check Alcotest.string "disconnected" "x: graph is not connected"
    (error_of "scmp-topology 1\nname x\nnodes 2\ncoord 0 1 1\ncoord 1 2 2\n");
  checkb "one node is a topology" true
    (Result.is_ok
       (Topology.Io.of_string "scmp-topology 1\nname one\nnodes 1\ncoord 0 1 1\n"))

(* A declared node count far beyond the file's coord lines is an error,
   not an attempt to allocate arrays of that size (which raised
   Out_of_memory here). *)
let test_io_huge_node_count () =
  Alcotest.check
    Alcotest.(result reject string)
    "missing coords, nothing allocated" (Error "missing coord lines")
    (Result.map ignore
       (Topology.Io.of_string
          "scmp-topology 1\nname big\nnodes 1000000000000000\ncoord 0 1 1\n"))

let test_io_ignores_comments () =
  let spec = Topology.Waxman.generate ~seed:4 ~n:10 () in
  let text = "# a comment\n\n" ^ Topology.Io.to_string spec ^ "\n# trailing\n" in
  checkb "comments and blanks ok" true (Result.is_ok (Topology.Io.of_string text))

(* Mutation fuzzing ({!Fuzz}): whatever the text, [of_string] answers
   Ok or Error and never raises. *)
let topology_seeds =
  lazy
    [
      Topology.Io.to_string (Topology.Waxman.generate ~seed:3 ~n:6 ());
      "# hand-written\n"
      ^ Topology.Io.to_string
          (Topology.Flat_random.generate ~seed:5 ~n:5 ~avg_degree:2.0);
      "scmp-topology 1\nname pair\nnodes 2\ncoord 0 0 0\ncoord 1 3 4\nlink 0 1 0.5 2\n";
    ]

let prop_io_fuzz =
  QCheck.Test.make ~count:3000 ~name:"Io.of_string: mutants are Ok or Error"
    (Fuzz.arb_mutant topology_seeds) (fun s ->
      match Topology.Io.of_string s with Ok _ | Error _ -> true)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "topology"
    [
      ( "spec",
        [
          Alcotest.test_case "manhattan" `Quick test_manhattan;
          Alcotest.test_case "random coords" `Quick test_random_coords_distinct;
          Alcotest.test_case "uniform delay" `Quick test_uniform_delay;
        ] );
      ( "waxman",
        [
          Alcotest.test_case "connected + weights" `Quick test_waxman_connected_and_weighted;
          Alcotest.test_case "deterministic" `Quick test_waxman_deterministic;
          Alcotest.test_case "errors" `Quick test_waxman_errors;
        ] );
      ( "flat_random",
        [
          Alcotest.test_case "target degree" `Quick test_flat_random_degree;
          Alcotest.test_case "errors" `Quick test_flat_random_errors;
          qc prop_flat_random_always_connected;
        ] );
      ( "arpanet",
        [
          Alcotest.test_case "shape" `Quick test_arpanet_shape;
          Alcotest.test_case "fixed structure" `Quick test_arpanet_structure_fixed;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "error messages" `Quick test_io_error_messages;
          Alcotest.test_case "comments" `Quick test_io_ignores_comments;
          Alcotest.test_case "huge node count" `Quick test_io_huge_node_count;
          qc prop_io_fuzz;
        ] );
    ]
