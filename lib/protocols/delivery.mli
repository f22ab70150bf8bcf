(** Data-delivery recorder shared by all protocol agents.

    Every protocol calls {!record} when a member router hands a data
    packet to its subnet. The recorder derives the paper's delay metric
    (maximum end-to-end delay over all packet deliveries, §IV.B) and
    the correctness counters the tests rely on: exactly-once delivery
    to exactly the member set. *)

type t

val create : Eventsim.Engine.t -> t

val expect : t -> seq:int -> members:Message.node list -> sent_at:float -> unit
(** Declare a data packet: who must receive it and when it left the
    source. *)

val record : t -> seq:int -> at_router:Message.node -> unit
(** A member router delivered packet [seq] to its subnet now. Unknown
    sequence numbers and non-member routers are counted as spurious. *)

val record_once : t -> seq:int -> at_router:Message.node -> unit
(** {!record}, for a caller that can receive one packet more than once:
    a repeat by a router already delivered or already counted as
    spurious is ignored. Unknown sequence numbers are counted every
    time, as by {!record}. *)

val deliveries : t -> int
val duplicates : t -> int
(** Redundant deliveries of a (seq, member) pair beyond the first. *)

val spurious : t -> int
(** Deliveries at routers that were not in the packet's member set. *)

val missed : t -> int
(** Expected (seq, member) pairs never delivered (so far). *)

val max_delay : t -> float
(** Largest (delivery time - send time); [0.] if nothing delivered. *)

val mean_delay : t -> float

val iter_delays : t -> (float -> unit) -> unit
(** [iter_delays t f] applies [f] to every per-delivery delay, newest
    first. *)
