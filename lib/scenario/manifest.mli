(** Declarative scenario manifests ([scmp-scenario/1]).

    A manifest is a checked-in JSON document naming a full comparison
    sweep — drivers, topologies, grid axes, and the perturbation
    program (loss, scripted faults, random link failures, churn) — so
    an experiment is reviewable data, not a shell incantation.

    Parsing is strict: unknown fields are errors, driver names are
    validated against the {!Protocols.Driver} list, and every
    fault program line is checked against the {!Eventsim.Faults}
    CLI parsers at load time. Printing is canonical (fixed field
    order, absent optionals omitted), so parse -> print -> parse is
    the identity on the typed form. *)

val schema : string
(** ["scmp-scenario/1"]. *)

type loss = {
  rate : float;  (** Bernoulli drop probability, [0 <= rate < 1]. *)
  seed : int;
  only : Eventsim.Netsim.pkt_class option;
      (** Restrict loss to one class; [None] drops both. *)
}

type t = {
  name : string;
  drivers : string list;  (** Validated driver names. *)
  topos : Exec.Sweep.topo list;
  group_sizes : int list;
  seeds : int list;
  packets : int;
  master_seed : int;
  loss : loss option;
  link_failures : string list;
      (** CLI syntax [A-B\@T\[:restore\@T'\]], validated at load. *)
  node_failures : string list;  (** [N\@T\[:restore\@T'\]]. *)
  partitions : string list;  (** [a,b,c\@T\[:heal\@T'\]]. *)
  random_link_failures : Exec.Sweep.random_failures option;
  churn : Exec.Sweep.churn_spec option;
  check : bool;  (** Run the protocol invariant verifier in each cell. *)
}

val validate : t -> (t, string) result
(** The grid checks every manifest passes, parsed or built: non-empty
    drivers, topologies and seeds, positive group sizes, [packets >= 1]. *)

val grid :
  name:string ->
  drivers:string list ->
  topos:Exec.Sweep.topo list ->
  group_sizes:int list ->
  seeds:int list ->
  packets:int ->
  master_seed:int ->
  check:bool ->
  t
(** An unperturbed manifest over the given grid (unvalidated) — what
    [scmp_sim sweep]'s grid flags lower into. *)

val of_json : Obs.Json.t -> (t, string) result
(** Parse strictly, then {!validate}. *)

val of_string : string -> (t, string) result

val load : path:string -> (t, string) result
(** Read and parse a manifest file; I/O failures become [Error]. *)

val to_json : t -> Obs.Json.t
val to_string : ?pretty:bool -> t -> string
(** Canonical form (default pretty): fixed field order, absent
    optional sections omitted. *)

val to_sweep : t -> (Exec.Sweep.spec, string) result
(** Lower to an executable sweep spec, parsing the stored fault
    program lines. *)
