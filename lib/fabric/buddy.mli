(** Buddy allocator over fabric port columns.

    The CCN merges a group's source signals through a binary reduction
    tree over port columns (see {!Reduction}). Two groups' trees are
    guaranteed link-disjoint exactly when each group occupies a
    power-of-two-sized, size-aligned block of columns — the classic
    buddy property. This allocator hands out such blocks. *)

type t

type block = { offset : int; size : int }
(** [size] a power of two, [offset mod size = 0]. *)

val create : int -> t
(** [create n] manages columns [0..n-1]; [n] must be a power of two.
    @raise Invalid_argument otherwise. *)

val capacity : t -> int

val alloc : t -> int -> block option
(** [alloc t k] reserves a block of [max 1 (pow2_ceil k)] columns;
    [None] when fragmentation or occupancy makes that impossible.
    @raise Invalid_argument if [k <= 0] or [k > capacity]. *)

val free : t -> block -> unit
(** Return a block; adjacent buddies coalesce.
    @raise Invalid_argument if the block is not currently allocated. *)

val allocated : (* lint: allow unused-export: introspection, the live blocks *)
  t -> block list
(** Live blocks, by offset. *)

val free_columns : (* lint: allow unused-export: introspection counter, columns in no block *)
  t -> int
(** Number of columns not in any live block. *)

val pow2_ceil : int -> int
(** Smallest power of two >= the argument (argument >= 1). *)
