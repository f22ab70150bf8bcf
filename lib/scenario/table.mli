(** Figure tables from a sweep report.

    A sweep report ([scmp_sim sweep --report]) carries one row per cell
    and metric, [cell/<driver>/<topo>/k<K>/s<S>/<metric>], and its meta
    names the grid: [drivers], [topologies], [group_sizes] and [seeds].
    {!render} turns one metric of such a report into the tables the
    paper's figures plot, so a figure is a manifest plus one command. *)

val render : Obs.Json.t -> metric:string -> (string, string) result
(** One table per topology, in the report's order: a row per group
    size, a column per driver in the report's order, and in each entry
    the mean over the report's seeds of the cells' [metric], printed
    with four decimals. The report is read through {!Ab.metrics}. A
    report of another schema, a meta without the four grid lists, or a
    cell without [metric] is an [Error] naming what is missing. The
    text ends with a newline. *)
