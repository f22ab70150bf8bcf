(** Service-Centric Multicast: the public umbrella module.

    Curated entry points of the whole reproduction:

    - {!Domain} — build and drive a complete SCMP domain (start here);
    - {!Service} — the m-router's group/session/accounting database;
    - {!Placement} — where to put the m-router;
    - {!Setup} — topology to runnable scenario, the experiments' one
      builder;
    - re-exports of the underlying subsystem libraries so applications
      need only depend on [scmp]. *)

module Domain = Domain
module Service = Service
module Placement = Placement
module Setup = Setup

(** {2 Subsystem re-exports} *)

module Graph = Netgraph.Graph
module Path = Netgraph.Path
module Dijkstra = Netgraph.Dijkstra
module Apsp = Netgraph.Apsp

module Tree = Mtree.Tree
module Dcdm = Mtree.Dcdm
module Kmb = Mtree.Kmb
module Spt = Mtree.Spt
module Bound = Mtree.Bound
module Tree_eval = Mtree.Eval

module Topology_spec = Topology.Spec
module Waxman = Topology.Waxman
module Flat_random = Topology.Flat_random
module Arpanet = Topology.Arpanet

module Engine = Eventsim.Engine
module Netsim = Eventsim.Netsim
module Routes = Eventsim.Routes
module Dot = Netgraph.Dot
module Topology_io = Topology.Io
module Trace = Eventsim.Trace

module Benes = Fabric.Benes
module Sandwich = Fabric.Sandwich
module Copynet = Fabric.Copynet

module Message = Protocols.Message
module Tree_packet = Protocols.Tree_packet
module Igmp = Protocols.Igmp
module Driver = Protocols.Driver
module Runner = Protocols.Runner
module Multi_mrouter = Protocols.Multi
module Pim_sm = Protocols.Pim_sm
module Delivery = Protocols.Delivery
module Churn = Protocols.Churn
module Cpu_station = Eventsim.Server

module Prng = Scmp_util.Prng
module Stats = Scmp_util.Stats

module Invariant = Check.Invariant
module Lint = Check.Lint

module Metrics = Obs.Metrics
module Report = Obs.Report
module Series = Obs.Series
module Json = Obs.Json
