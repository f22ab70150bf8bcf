(** Declarative scenario manifests ([scmp-scenario/1]).

    A manifest is a checked-in JSON document naming a full comparison
    sweep — drivers, topologies, grid axes, and the perturbation
    program (loss, scripted faults, random link failures, churn) — so
    an experiment is reviewable data, not a shell incantation.

    Parsing is strict: unknown fields are errors, driver names are
    validated against the {!Protocols.Driver} list, and the
    perturbation program passes {!Exec.Sweep.validate_perturbation} —
    the check [scmp_sim run]'s flags pass — at load time; what needs a
    topology (node ids, links) is checked in each cell by
    {!Exec.Sweep.perturb}. Printing is canonical (fixed field order,
    absent optionals omitted), so parse -> print -> parse is the
    identity on the typed form. *)

val schema : string
(** ["scmp-scenario/1"]. *)

type t = {
  name : string;
  drivers : string list;  (** Validated driver names. *)
  topos : Exec.Sweep.topo list;
  group_sizes : int list;
  seeds : int list;
  packets : int;
  master_seed : int;
  perturbation : Exec.Sweep.perturbation;
      (** Its parts are the top-level fields [loss], [link_failures],
          [node_failures], [partitions], [random_link_failures] and
          [churn]. *)
  check : bool;  (** Run the protocol invariant verifier in each cell. *)
}

val validate : t -> (t, string) result
(** The checks every manifest passes, parsed or built: non-empty
    drivers, topologies and seeds, positive group sizes, [packets >= 1],
    and {!Exec.Sweep.validate_perturbation}. *)

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

val of_string : string -> (t, string) result

val load : path:string -> (t, string) result
(** Read and parse a manifest file; I/O failures become [Error]. *)

val to_json : t -> Obs.Json.t
val to_string : ?pretty:bool -> t -> string
(** Canonical form (default pretty): fixed field order, absent
    optional sections omitted. *)

val to_sweep : t -> Exec.Sweep.spec
(** The executable sweep spec: the grid and the perturbation as they
    are. *)
