module Intset = Set.Make (Int)

type t = {
  engine : Eventsim.Engine.t;
  router : Message.node;
  on_first_join : Message.group -> unit;
  on_last_leave : Message.group -> unit;
  table : (Message.group, Intset.t) Hashtbl.t;
  mutable queries : int;
  mutable reports : int;
}

let members t ~group =
  match Hashtbl.find_opt t.table group with
  | None -> []
  | Some s -> Intset.elements s

let groups t =
  Hashtbl.fold
    (fun g s acc -> if Intset.is_empty s then acc else g :: acc)
    t.table []
  |> List.sort Int.compare

let query_round t =
  t.queries <- t.queries + 1;
  (* Report suppression: exactly one host answers per group with
     members (the first report silences the rest). *)
  t.reports <- t.reports + List.length (groups t)

(* IGMP's default query interval, in simulated seconds, and how long
   the DR waits for a report after a Leave before declaring the group
   empty. *)
let query_interval = 125.0
let last_member_wait = 1.0

let create engine ~router ~on_first_join ~on_last_leave () =
  let t =
    {
      engine;
      router;
      on_first_join;
      on_last_leave;
      table = Hashtbl.create 8;
      queries = 0;
      reports = 0;
    }
  in
  Eventsim.Engine.every engine ~interval:query_interval ~background:true (fun () ->
      query_round t);
  t

let host_join t ~host ~group =
  let current = Option.value ~default:Intset.empty (Hashtbl.find_opt t.table group) in
  let first = Intset.is_empty current in
  Hashtbl.replace t.table group (Intset.add host current);
  t.reports <- t.reports + 1;
  if first then t.on_first_join group

let host_leave t ~host ~group =
  match Hashtbl.find_opt t.table group with
  | None -> ()
  | Some current ->
    if Intset.mem host current then begin
      let remaining = Intset.remove host current in
      Hashtbl.replace t.table group remaining;
      if Intset.is_empty remaining then begin
        (* Group-specific query; if nobody reports within the wait, the
           group is gone from this subnet. A re-join during the wait
           repopulates the table and the check below sees it. *)
        t.queries <- t.queries + 1;
        Eventsim.Engine.schedule t.engine ~delay:last_member_wait (fun () ->
            match Hashtbl.find_opt t.table group with
            | Some s when not (Intset.is_empty s) -> ()
            | Some _ | None ->
              Hashtbl.remove t.table group;
              t.on_last_leave group)
      end
    end

let queries_sent t = t.queries
let reports_sent t = t.reports
let router t = t.router
