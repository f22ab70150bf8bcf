(** The scenario builder behind every experiment (§IV.A, Figs 8/9).

    One function owns the policy the paper's runs share:

    + the m-router goes where placement rule 1 puts it (least average
      delay), computed on the unscaled topology;
    + [min k (n - 1)] of the [n] routers are sampled from the caller's
      PRNG stream — the stream is the caller's, so each experiment
      keeps its own seeding;
    + the m-router is dropped from the sample;
    + the first remaining member is the source.

    Callers that need other {!Protocols.Runner} knobs update the
    returned scenario's record ([{ sc with scmp_distribution }]).
    Callers that compare placement rules call {!Placement.pick}
    themselves. *)

type t = {
  scenario : Protocols.Runner.scenario;
  apsp : Netgraph.Apsp.t;
      (** The unscaled table the m-router was placed with. *)
}

val draw :
  rng:Scmp_util.Prng.t ->
  group_size:int ->
  ?packets:int ->
  Topology.Spec.t ->
  (t, string) result
(** Place, sample and build with {!Protocols.Runner.make}'s defaults;
    [packets] is the data count (default the runner's 30). [Error] when
    the sample holds no member besides the m-router (e.g. [group_size
    < 1], a one-node graph, or a single draw that hit the m-router). *)
