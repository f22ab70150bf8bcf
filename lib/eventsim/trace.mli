(** Packet trace capture — the NS-2 trace-file analogue.

    Attach a trace to a network simulation and every link crossing is
    recorded as one line:

    {v
    <time> <src> <dst> <C|D> <description>
    v}

    with [C]/[D] the control/data class and the description produced by
    the caller (e.g. [Protocols.Message.describe]). A packet kill is
    recorded too, with class [X] and the drop reason before the
    description:

    {v
    <time> <src> <dst> X <loss|no_route|link_down|node_down> <description>
    v}

    Traces make simulations debuggable the way NS-2 runs were:
    replayable, grep-able records of exactly what crossed which link
    when — and of what died where, and why. *)

type t

val attach : ?limit:int -> 'm Netsim.t -> describe:('m -> string) -> t
(** Starts recording every subsequent crossing (registers an
    {!Netsim.on_transmit} hook; earlier traffic is not recorded).

    [limit] bounds memory on long runs: the trace becomes a ring buffer
    keeping only the newest [limit] lines, counting evictions in
    {!dropped}. Unbounded without it.
    @raise Invalid_argument if [limit < 1]. *)

val line_count : t -> int
(** Lines currently retained (≤ [limit] when one was given). *)

val dropped : t -> int
(** Oldest lines evicted by the [limit] ring buffer; 0 when
    unbounded. *)

val drop_events : (* lint: allow unused-export: introspection counter, drop lines including evicted ones *)
  t -> int
(** Packet-kill ([X]) lines recorded so far (counted even when the ring
    buffer later evicts the line). *)

val lines : t -> string list
(** Recorded lines, oldest first. *)

val to_string : t -> string
(** All lines, newline-terminated. *)

val save : t -> path:string -> (unit, string) result

val clear : t -> unit
(** Forget everything recorded so far, including the dropped count
    (the hook stays active). *)
