(** Beneš rearrangeable permutation networks.

    The PN and DN layers of the m-router's sandwich fabric (§II.B,
    Fig 3) are permutation networks; the Beneš network is the canonical
    rearrangeably non-blocking choice: [2 log2 n - 1] stages of 2x2
    crossbar elements realize {e any} permutation of its [n] ports.

    {!route} computes element settings with the classic looping
    algorithm (Opferman & Tsao-Wu 1971); {!eval} propagates port
    indices through a configuration, so tests can verify that routing
    and hardware agree. *)

type config
(** Switch settings for one n-port network ([n] a power of two). *)

val route : int array -> config
(** [route perm] configures an [n]-port Beneš network to connect input
    [i] to output [perm.(i)] for every [i].
    @raise Invalid_argument if the array is not a permutation or its
    length is not a power of two (>= 2). *)

val eval : config -> int array
(** The realized permutation: [eval (route p) = p]. *)

val ports : config -> int

val depth : config -> int
(** Number of element stages: [2 log2 n - 1]. *)

val element_count : config -> int
(** Total 2x2 elements: [n/2 * depth] (the [n=2] base is one element). *)

val crossed_count : (* lint: allow unused-export: introspection, a configuration's crossed elements *)
  config -> int
(** Elements set to "cross" — a cheap fingerprint used by tests. *)

val identity : int -> config
(** Configuration realizing the identity permutation on [n] ports. *)
