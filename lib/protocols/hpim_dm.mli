(** HPIM-DM agents (Oliveira, Pinto & Rocha — hard-state dense-mode
    multicast; see PAPERS.md) — the modern rival baseline for the
    Fig 8/9-style comparisons.

    Like DVMRP it builds per-source reverse-path trees by flooding and
    withdrawing, but its state discipline is inverted:

    - {b Hard state}: a router's no-interest declaration toward its RPF
      upstream never expires, so there is {e no periodic re-flood} —
      after the first flood round a source tree carries data only where
      interest exists, permanently;
    - {b Sequence-numbered reliable sync}: every interest change
      travels as an {!Message.Hpim_sync} retransmitted through a
      {!Reliable} window until the matching {!Message.Hpim_ack}
      arrives; receivers apply only fresher sequence numbers, so
      reordered or duplicated control packets cannot roll state back;
    - {b Explicit grafting}: because pruned state is permanent, a new
      member (or a route reconvergence after a fault) re-opens its
      branch by syncing interest up the RPF chain — the cascade
      replaces DVMRP's timeout-driven recovery. *)

type node = Message.node

type t

val create :
  ?delivery:Delivery.t ->
  Message.t Eventsim.Netsim.t ->
  unit ->
  t
(** Interest syncs retransmit after 0.6 simulated seconds, doubling
    per attempt, and are given up after 8 sends. No core/root
    parameter: trees are rooted at each source. *)

val host_join : t -> group:Message.group -> node -> unit
val host_leave : t -> group:Message.group -> node -> unit
val send_data : t -> group:Message.group -> src:node -> seq:int -> unit

val is_member : t -> group:Message.group -> node -> bool

val no_interest_links : (* lint: allow unused-export: introspection counter, live no-interest records *)
  t -> int
(** Live hard-state no-interest records across the domain
    (introspection for tests; the analogue of
    {!Dvmrp.pruned_links}). *)

val verify : t -> (unit, string) result
(** Quiesced-network self-check: statically replay the forwarding rules
    from every source that sent data and require every member the live
    topology still connects to the source to sit in the accepting
    set. *)

val observe : t -> Obs.Metrics.t -> unit
(** Publish [hpim/syncs], [hpim/acks], [hpim/retransmissions] and — only
    when it happened — [hpim/giveups]. Idempotent. *)
