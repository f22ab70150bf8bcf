(* A 48-node rendition of the early-80s ARPANET backbone, the fixed
   benchmark graph of the paper's Figs 8(a)/9(a). Site positions live on
   a 100 x 60 map of the continental US, scaled by 300 onto the standard
   grid. The link list follows the historical shape: dense west-coast
   and north-east clusters, a sparse middle, two southern trunks and two
   northern trunks crossing the continent; mean degree ~2.9, diameter
   ~10 hops. Exact IMP-era adjacency is not recoverable from the paper
   (nor needed): what the experiments rely on is a fixed, realistic,
   sparse continental mesh large enough for 40-member groups. *)

let sites =
  [|
    (* --- far west (0-11) --- *)
    ("SRI", (4, 38));
    ("AMES", (4, 33));
    ("STANFORD", (5, 35));
    ("LBL", (5, 40));
    ("UCB", (6, 39));
    ("SEATTLE", (6, 52));
    ("UCSB", (5, 26));
    ("UCLA", (7, 22));
    ("RAND", (8, 20));
    ("SDC", (9, 24));
    ("USC", (8, 23));
    ("ISI", (7, 19));
    (* --- mountain (12-19) --- *)
    ("UTAH", (18, 36));
    ("BOULDER", (26, 33));
    ("DENVER", (27, 31));
    ("PHOENIX", (15, 17));
    ("ALBUQUERQUE", (24, 20));
    ("SANDIA", (25, 19));
    ("SALT2", (19, 38));
    ("MONTANA", (22, 48));
    (* --- central (20-29) --- *)
    ("TEXAS", (38, 12));
    ("DALLAS", (39, 16));
    ("HOUSTON", (41, 9));
    ("OKLAHOMA", (40, 22));
    ("KANSAS", (42, 28));
    ("STLOUIS", (50, 28));
    ("ILLINOIS", (53, 34));
    ("CHICAGO", (54, 40));
    ("WISCONSIN", (51, 45));
    ("MINNESOTA", (47, 48));
    (* --- south east (30-35) --- *)
    ("TENNESSEE", (60, 22));
    ("GATECH", (64, 17));
    ("ATLANTA", (65, 16));
    ("FLORIDA", (72, 6));
    ("MIAMI", (76, 3));
    ("NORFOLK", (76, 25));
    (* --- mid atlantic (36-41) --- *)
    ("CMU", (68, 35));
    ("PITTSBURGH", (69, 36));
    ("ABERDEEN", (77, 31));
    ("DC", (78, 29));
    ("PENTAGON", (77, 28));
    ("MITRE", (79, 30));
    (* --- north east (42-47) --- *)
    ("PRINCETON", (82, 35));
    ("RUTGERS", (83, 36));
    ("NYU", (84, 39));
    ("YALE", (86, 42));
    ("BBN", (89, 47));
    ("MIT", (90, 48));
  |]

let edges =
  [
    (* west coast cluster *)
    (0, 2); (0, 3); (0, 4); (1, 2); (1, 6); (2, 4);
    (3, 4); (3, 5); (0, 5); (6, 7); (7, 8); (7, 11);
    (8, 9); (8, 10); (9, 10); (10, 11); (6, 9); (1, 12);
    (* mountain *)
    (12, 18); (18, 19); (19, 5); (12, 13); (13, 14); (14, 16);
    (16, 17); (15, 16); (7, 15); (17, 20); (12, 2);
    (* central *)
    (20, 21); (20, 22); (21, 23); (23, 24); (24, 14); (24, 25);
    (25, 26); (26, 27); (27, 28); (28, 29); (29, 19); (25, 30);
    (22, 33); (21, 30); (13, 29);
    (* south east *)
    (30, 31); (31, 32); (32, 33); (33, 34); (32, 35); (34, 35);
    (* mid atlantic *)
    (26, 36); (36, 37); (37, 27); (35, 39); (38, 39); (38, 41);
    (39, 40); (40, 41); (37, 39); (30, 36);
    (* north east *)
    (41, 42); (42, 43); (43, 44); (44, 45); (45, 46); (46, 47);
    (44, 42); (45, 47); (26, 28); (36, 42);
  ]

let node_count = Array.length sites

let site_names = Array.map fst sites

let scale = 300

let generate ~seed =
  let rng = Scmp_util.Prng.create seed in
  let coords = Array.map (fun (_, (x, y)) -> (x * scale, y * scale)) sites in
  let b = Netgraph.Graph.Builder.create node_count in
  List.iter
    (fun (u, v) ->
      let cost = float_of_int (Spec.manhattan coords.(u) coords.(v)) in
      let delay = Spec.uniform_delay rng ~cost in
      Netgraph.Graph.Builder.add_link b u v ~delay ~cost)
    edges;
  Spec.make ~name:"arpanet" ~graph:(Netgraph.Graph.Builder.freeze b) ~coords
