(** The per-topology memo policy: a domain-local round-robin of eight
    weak slots, plus a strong hold on the values most recently
    returned.

    A slot holds its value weakly: a value stays shared while a caller
    or the hold keeps it, and is then collected. Keys are held
    strongly, so a key must be plain data that does not reach the value
    (a [(topo, seed)] pair, a graph's stamp). Each domain has its own
    slots, so a value reached through one domain's memo is never
    handed to another domain by it. *)

type ('k, 'v) t

val create : ?hold:int -> unit -> ('k, 'v) t
(** [hold] (default 0): how many of the most recently returned distinct
    values the memo keeps alive itself, so that callers alternating
    between them share them whatever the collector did in between. *)

val find : ('k, 'v) t -> same:('k -> 'k -> bool) -> 'k -> (unit -> 'v) -> 'v
(** [find t ~same key make] is the value of the calling domain's slot
    whose key [same]-matches [key] and whose value is still alive;
    otherwise [make ()], stored under [key] — in the matching slot if
    there is one, else in the next slot round-robin. The slots' keys
    are compared first, and a value is read only on a key match, so a
    probe never revives the values of the other slots. *)
