(** First-class protocol drivers and the fixed list of the six built-in
    ones.

    A driver packages one multicast protocol behind a uniform
    signature, so the runner, the CLI, the bench harness and the
    examples select protocols by {e name} instead of pattern-matching a
    closed variant — adding a protocol means adding a driver to the
    list in [driver.ml], not editing every caller.

    [setup] instantiates the protocol's agents on a network simulation
    and returns an {!instance}: the host-facing operations plus the
    observability and verification hooks the runner wires in. *)

type config = {
  net : Message.t Eventsim.Netsim.t;
  delivery : Delivery.t;
  center : Message.node;
      (** m-router (SCMP) / core (CBT) / RP (PIM-SM); unused by the SPT
          protocols. *)
}
(** What a driver is set up on. Nothing here tunes a protocol: each
    agent runs with its own defaults (SCMP's tightest delay bound,
    DVMRP's 10 s prune lifetime), and a protocol variant is a driver
    of its own ([scmp-full-tree], below). *)

type instance = {
  join : group:Message.group -> Message.node -> unit;
  leave : group:Message.group -> Message.node -> unit;
  send : group:Message.group -> src:Message.node -> seq:int -> unit;
  snapshots : unit -> Check.Invariant.snapshot list;
      (** Distributed-state snapshots for the invariant verifier; only
          SCMP exposes tree state, baselines return []. *)
  verify : unit -> (unit, string) result;
      (** Protocol self-check on a quiesced network. *)
  observe : Obs.Metrics.t -> unit;
      (** Publish protocol-level metrics (e.g. SCMP's TREE/BRANCH
          counts and tree-compute cost). Idempotent. *)
  blackouts : unit -> float list;
      (** Completed per-group blackout samples (sim seconds from a
          fault to the first post-repair delivery), oldest first; only
          SCMP measures these, baselines return []. *)
}

module type S = sig
  val name : string
  (** Lookup key, lowercase (e.g. ["pim-sm"]). *)

  val display : string
  (** Table/figure label (e.g. ["PIM-SM"]). *)

  val setup : config -> instance
end

type t = (module S)

val name : t -> string
val display : t -> string
val setup : t -> config -> instance

(** {2 The driver list}

    The six built-ins, in this order: [scmp], [cbt], [dvmrp], [mospf],
    [pim-sm], [hpim-dm]. *)

val find : string -> (t, string) result
(** Case-insensitive lookup; the error names the protocols of the list.
    It also resolves the one variant outside the list, so a manifest can
    run it: [scmp-full-tree], SCMP distributing every membership change
    as a full TREE packet, never a BRANCH (the §III.E ablation). {!all}
    and {!names} never return it. *)

val find_exn : string -> t
(** @raise Invalid_argument on unknown names ({!find}'s message). *)

val find_all : string list -> ((string * t) list, string) result
(** Resolve every name, in order, paired with its driver; the error is
    {!find}'s message for the first unknown name. *)

val all : unit -> t list
(** The list order. *)

val names : unit -> string list
