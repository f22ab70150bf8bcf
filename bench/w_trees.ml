(* Tree-construction workloads: fig 7 and its candidate-set ablation.
   The BRANCH-vs-TREE ablation is the manifest
   examples/scenarios/branch.json. *)

open Bench_util

(* ------------------------------------------------------------------ *)
(* Fig 7: tree delay / tree cost vs group size, three constraint
   levels, on 100-node Waxman graphs. DCDM vs KMB vs SPT (and the
   candidate-set ablation with --ablate). *)

let fig7_group_sizes = [ 10; 20; 30; 40; 50; 60; 70; 80; 90 ]

type fig7_algo = {
  name : string;
  build :
    Netgraph.Apsp.t -> root:int -> members:int list -> bound:Mtree.Bound.t ->
    Mtree.Tree.t;
}

let fig7_algos ~ablate =
  let dcdm ?candidates () =
    {
      name =
        (match candidates with
        | Some Mtree.Dcdm.Least_cost_only -> "DCDM/lc"
        | Some Mtree.Dcdm.Shortest_delay_only -> "DCDM/sl"
        | _ -> "DCDM");
      build =
        (fun apsp ~root ~members ~bound ->
          Mtree.Dcdm.build ?candidates apsp ~root ~bound ~members);
    }
  in
  let kmb =
    {
      name = "KMB";
      build =
        (fun apsp ~root ~members ~bound:_ -> Mtree.Kmb.build apsp ~root ~members);
    }
  in
  let spt =
    {
      name = "SPT";
      build =
        (fun apsp ~root ~members ~bound:_ -> Mtree.Spt.build apsp ~root ~members);
    }
  in
  if ablate then
    [
      dcdm ();
      dcdm ~candidates:Mtree.Dcdm.Least_cost_only ();
      dcdm ~candidates:Mtree.Dcdm.Shortest_delay_only ();
      kmb;
      spt;
    ]
  else [ dcdm (); kmb; spt ]

let fig7 ~seeds ~ablate () =
  section "Fig 7 — multicast tree quality (100-node Waxman, alpha=0.25, beta=0.2)";
  pr "averaged over %d seeds; members joined in random order\n" seeds;
  let algos = fig7_algos ~ablate in
  List.iter
    (fun bound ->
      let columns =
        T.column ~align:T.Left "group size"
        :: List.map (fun a -> T.column a.name) algos
      in
      let delay_tab = T.create columns in
      let cost_tab = T.create columns in
      List.iter
        (fun size ->
          let sums_d = Array.make (List.length algos) 0.0 in
          let sums_c = Array.make (List.length algos) 0.0 in
          for seed = 1 to seeds do
            let spec = Topology.Waxman.generate ~seed ~n:100 () in
            let { Scmp.Setup.scenario = sc; apsp } =
              draw ~rng:(Scmp_util.Prng.create (seed * 7919)) ~group_size:size
                spec
            in
            let root = sc.center and members = sc.members in
            List.iteri
              (fun i a ->
                let tree = a.build apsp ~root ~members ~bound in
                sums_d.(i) <- sums_d.(i) +. Mtree.Eval.tree_delay tree;
                sums_c.(i) <- sums_c.(i) +. Mtree.Eval.tree_cost tree)
              algos
          done;
          let avg s = s /. float_of_int seeds in
          T.add_float_row delay_tab ~decimals:0 (string_of_int size)
            (Array.to_list (Array.map avg sums_d));
          T.add_float_row cost_tab ~decimals:0 (string_of_int size)
            (Array.to_list (Array.map avg sums_c)))
        fig7_group_sizes;
      let level = Mtree.Bound.to_string bound in
      print_table ~title:(Printf.sprintf "Fig 7 tree delay, %s constraint" level)
        delay_tab;
      print_table ~title:(Printf.sprintf "Fig 7 tree cost, %s constraint" level)
        cost_tab)
    Mtree.Bound.all_levels

let workloads =
  [
    {
      Workload.name = "fig7";
      doc = "tree delay/cost vs group size (DCDM vs KMB vs SPT)";
      run = (fun c -> fig7 ~seeds:(if c.Workload.full then 10 else 3) ~ablate:c.ablate ());
    };
  ]
