(** Monotone bucket ("radix") heap: non-negative float keys, any
    payload.

    The Dijkstra frontier (int payloads) and the event engine's
    scheduler (boxed payloads). Compared to the general {!Heap}: O(1)
    amortized add and near-O(1) pop, but keys must be {e monotone} —
    every key added must be >= the minimum most recently popped
    (Dijkstra guarantees this: a relaxation pushes [d + w >= d]; an
    event engine too: the clock only moves forward).

    Equal keys pop in global insertion (FIFO) order, exactly like
    {!Heap}'s sequence-number rule — shortest-path tie-breaking and
    whole-run simulation determinism rest on it. *)

type 'a t

val create : unit -> 'a t
(** An empty heap with floor 0.0 — every key must be >= 0. *)

val add : 'a t -> key:float -> 'a -> unit
(** @raise Invalid_argument if [key] is NaN, negative, or below the
    monotonicity floor — a lower bound that trails the extracted
    minimum (0.0 initially, advanced lazily as buckets are
    redistributed), so an out-of-order add from a buggy caller is
    detected best-effort rather than always. Keys at or above the
    floor are ordered correctly even when below an earlier popped
    key. *)

val image : float -> int
(** Order-preserving native-int image of a non-negative float key (the
    IEEE-754 bit pattern shifted into int range); what keys are binned
    by. Small enough for the cross-module inliner, so computing it at
    the call site keeps the key out of a boxed float argument. *)

val key_of_image : int -> float
(** Inverse of {!image} on its range. *)

val add_image : (* lint: allow unused-export: reference oracle, the pre-imaged entry point against add *)
  'a t -> int -> 'a -> unit
(** [add_image t (image key) v] = [add t ~key v] for non-negative,
    non-NaN keys — the allocation-free hot-loop form. NaN images sort
    above every finite image rather than being rejected, so callers
    must not feed NaNs.
    @raise Invalid_argument if the image is below the floor's. *)

val min_image : 'a t -> int
(** Image of the current minimum key; [max_int] when empty (strictly
    above the image of every float key, +infinity included). Locates
    the minimum and memoizes its position, so the following {!pop_min}
    is O(1) — the peek-then-pop of a drain loop costs one search. A
    peek leaves the monotonicity floor where it was: a key between the
    last popped one and this minimum may still be added. *)

val pop_min : 'a t -> 'a
(** Pop the minimum-key entry — among equal keys, the earliest
    inserted. Uses the position memoized by {!min_image} when the heap
    was not touched in between; locates it itself otherwise. Draining
    the heap to empty releases its bucket storage, so no popped payload
    stays reachable from it.
    @raise Invalid_argument if the heap is empty. *)

val pop : 'a t -> (float * 'a) option
(** [min_image]/[pop_min] packaged with the key recovered — the
    allocating convenience form for tests and oracles. *)

val pop_run : int t -> int array -> int
(** [pop_run t buf] pops the maximal run of minimum-key entries into
    [buf] (earliest-inserted first), capped by [Array.length buf], and
    returns the count — 0 iff the heap is empty. Every popped key in
    one call is equal; a capped run continues on the next call. Batch
    form of [pop_min] for drain loops whose later adds are all strictly
    above the current minimum (Dijkstra with positive weights): the
    concatenated runs are exactly the per-entry pop sequence. Keeps the
    bucket storage when the heap drains (workspace reuse). *)

val drain_csr :
  int t ->
  off:int array ->
  ends:int array ->
  nbr:int array ->
  eid:int array ->
  wsel:float array ->
  woth:float array ->
  dist:float array ->
  pred:int array ->
  pred_edge:int array ->
  other:float array ->
  reach:int ->
  cutoff:float ->
  bool
(** Run the unfiltered CSR Dijkstra drain to completion: repeatedly pop
    the minimum node [x], relax its slots [off.(x) .. ends.(x) - 1]
    ([nbr]/[eid] topology, [wsel] selected / [woth] companion weights),
    and push improved distances — fused with the heap so the hot loop
    pays no per-operation call overhead (the non-flambda compiler does
    not inline across compilation units). Pops and relaxations happen
    in exactly the order a [pop_min]/[add_image] loop would produce, so
    results are byte-identical; a popped entry is recognized as stale
    (node already settled) when its key no longer equals
    [image dist.(x)], so no settled-marker array is needed.

    The caller guarantees, unchecked (all accesses are unsafe): [off]
    and [ends] cover every node, each range [off.(x) .. ends.(x) - 1]
    lies inside the slot arrays, every [nbr] value in a range and every
    queued payload is a node below [Array.length dist], the four result
    arrays have one length, and weights are non-negative and finite. A
    full graph passes {!Netgraph.Graph.csr_ends}; a live delay CSR
    ({!Netgraph.Dijkstra.live}) passes its own shorter ends, and slots
    past an end are never read. See {!Netgraph.Dijkstra.run}, the
    owning API. Keeps the bucket storage when the heap drains
    (workspace reuse).

    [reach] is the number of nodes other than the source that the
    search can settle. Settles come in nondecreasing distance, so after
    [k] of them (source included), summing to [S] with the last at
    distance [d], the sum over all of them is at least
    [S + (reach + 1 - k) * d]. The drain stops, before relaxing, once
    that bound exceeds [cutoff], and returns [false]; the queue is then
    emptied but keeps its bucket storage, and [dist] holds a partial
    search. [cutoff = infinity] never stops it: the drain is the uncut
    one, result and pop order alike, and returns [true]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Entry slots the buckets hold, queued or free: what a workspace
    keeps from one search to the next. *)

val clear : 'a t -> unit
(** Empty the heap and reset the floor to 0.0. O(1) on an empty heap,
    which keeps whatever bucket storage it has (the Dijkstra
    workspace-reuse entry point); a non-empty heap releases its
    storage along with the payloads in it. *)
