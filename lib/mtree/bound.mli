(** Delay-constraint levels of the Fig 7 experiments.

    The paper evaluates three levels: {e tightest} ("the delay
    constraint cannot be tighter, or there is no multicast tree
    satisfying" it), {e moderate}, and {e loosest} ("all possible
    multicast trees can satisfy" it).

    The tightest feasible bound for a member set is the largest unicast
    delay of any member — no tree can deliver to a member faster than
    its shortest-delay path. We therefore express a level as a
    multiplier on that quantity; [Loosest] is unbounded. *)

type t =
  | Tightest  (** factor 1.0 *)
  | Moderate  (** factor 1.5 *)
  | Loosest  (** no constraint *)
  | Factor of float
      (** Custom multiplier (>= 1.0) on the max member unicast delay. *)

val limit : t -> max_unicast_delay:float -> float
(** Absolute delay bound for the current member set. *)

val to_string : t -> string

val all_levels : t list
(** The paper's three levels, tightest first. *)
