(** Plain-text serialization of generated topologies.

    Fixing a topology to a file makes experiments shareable and
    re-runnable without replaying generator seeds. The format is
    line-oriented and versioned:

    {v
    scmp-topology 1
    name waxman-100
    nodes 100
    coord <node> <x> <y>          (one line per node)
    link <u> <v> <delay> <cost>   (one line per link)
    v}

    Blank lines and lines starting with [#] are ignored on load. *)

val to_string : Spec.t -> string

val of_string : string -> (Spec.t, string) result
(** Parses and validates (via {!Spec.make}); all errors — bad syntax,
    bad counts, duplicate links, disconnected graphs — come back as
    [Error]. *)

val save : Spec.t -> path:string -> (unit, string) result

val load : path:string -> (Spec.t, string) result
