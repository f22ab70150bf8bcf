(** The benchmark's four workloads, each a fixed round of scenarios run
    back to back (a closed loop with one client) through the public
    library APIs: [Exec.Sweep.generate_topo], [Netgraph.Apsp.compute],
    [Scmp.Placement.pick], [Protocols.Runner.make]/[run] and
    [Exec.Chaos.plan]/[run_trial].

    A round is a pure function of the workload, the size and its round
    seed: every topology seed, member sample, churn seed and chaos master
    seed is derived from it. *)

type t =
  | Paper  (** Figs 8/9: many short runs, set-up heavy. *)
  | Scale  (** SCMP on Waxman-1000 under churn: DCDM and Dijkstra. *)
  | Flood  (** SCMP and CBT at 100 pkt/s: the data plane. *)
  | Faulty  (** Chaos trials of all six drivers, invariants on. *)

val all : t list
val to_string : t -> string
val of_string : string -> t option

type size =
  | Full  (** The benchmark's size: a round takes half a second to three. *)
  | Tiny  (** For the tier-1 test: a round takes milliseconds. *)

type run = {
  ok : bool;  (** Passed the workload's correctness rule. *)
  fingerprint : string;
      (** Label and deterministic results, one line, e.g.
          ["scmp/arpanet/k8/s1 d=217 dup=0 miss=0 ..."]. *)
  wall_s : float;  (** Wall inside [Runner.run] or [run_trial]. *)
  minor_words : float;  (** Minor words allocated in that call. *)
  events : int;
  heap_high_water : int;
  deliveries : int;
  data_tx : int;
  control_tx : int;
  dropped : int;
  spt_computed : int;
  spt_invalidated : int;
  routes_epochs : int;
  retransmissions : int;  (** SCMP and HPIM-DM reliable control plane. *)
  giveups : int;
  repairs : int;
  tree_computes : int;
  phase_setup_s : float;
  phase_join_s : float;
  phase_data_s : float;
}

type round = {
  runs : run list;  (** In execution order. *)
  setup_s : float;  (** Wall spent building scenarios before they ran. *)
  digest : string;  (** Hex digest of every run's fingerprint. *)
}

val round : ?tracer:Span.t -> size -> t -> seed:int -> round
(** Build and run one round from its round seed. With [tracer], spans
    are opened around every library call and each driver is wrapped so
    its set-up, join, leave, send, snapshot and verify entries are spans
    too. *)

val round_seeds : t -> int list
(** The round seeds a measurement draws from: each ran at full size
    with no failure when the benchmark was written. *)
