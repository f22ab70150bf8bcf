(** Graphviz (DOT) rendering of network graphs and multicast trees.

    One renderer covers both uses: plain topology dumps, and
    tree-over-topology views where the tree's links are highlighted,
    its members emphasized and its root marked — the pictures of the
    paper's Figs 5 and 6. Output is a complete [graph { ... }] document
    for [neato] (positions are honoured when coordinates are given). *)

val render :
  ?name:string ->
  ?coords:(int * int) array ->
  ?highlight:(Graph.node * Graph.node) list ->
  ?members:Graph.node list ->
  ?root:Graph.node ->
  Graph.t ->
  string
(** [render g] is a DOT document.

    - [coords]: node positions (scaled down to points for neato);
    - [highlight]: links drawn bold/colored (e.g. tree edges);
    - [members]: filled nodes (group members);
    - [root]: doubled circle (the m-router). *)

val write_file : string -> string -> (unit, string) result
(** [write_file path contents] — tiny helper so examples and the CLI
    need no extra dependency. *)
