(* Every registered protocol, one scenario: a miniature of the paper's
   network-wide evaluation (Figs 8 and 9), plus PIM-SM from the
   driver registry.

   Run with:  dune exec examples/protocol_faceoff.exe *)

let () =
  let spec = Scmp.Flat_random.generate ~seed:4 ~n:50 ~avg_degree:3.0 in
  (* rule-1 m-router, 20 sampled members, the first one sending *)
  let scenario =
    (Result.get_ok
       (Scmp.Setup.draw ~rng:(Scmp.Prng.create 42) ~group_size:20 spec))
      .scenario
  in
  let { Scmp.Runner.center; source; members; _ } = scenario in
  Printf.printf
    "50-node random topology (mean degree %.1f), %d members, source %d, \
     m-router/core %d\n30 packets at 1/s\n\n"
    (Scmp.Graph.mean_degree spec.graph)
    (List.length members) source center;
  Printf.printf "%-7s %14s %16s %10s %11s\n" "proto" "data overhead"
    "protocol overhead" "max delay" "deliveries";
  List.iter
    (fun d ->
      let r = Scmp.Runner.run d scenario in
      Printf.printf "%-7s %14.0f %16.0f %9.4fs %6d/%d dup=%d\n"
        (Scmp.Driver.display d)
        r.Scmp.Runner.data_overhead r.protocol_overhead r.max_delay r.deliveries
        (r.packets_sent * (List.length members - 1))
        r.duplicates)
    (Scmp.Driver.all ());
  print_newline ();
  print_endline
    "expected shape (paper Figs 8-9): SCMP lowest data overhead; DVMRP much";
  print_endline
    "higher data overhead; MOSPF steepest protocol overhead; CBT slightly";
  print_endline
    "below SCMP on protocol overhead; SPT protocols (DVMRP/MOSPF) fastest."
