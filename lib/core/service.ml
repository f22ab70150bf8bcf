type addr = int
type session_id = int

type event =
  | Member_joined of Netgraph.Graph.node
  | Member_left of Netgraph.Graph.node
  | Data_forwarded of { src : Netgraph.Graph.node; seq : int }
  | Session_started of session_id
  | Session_ended of session_id

(* The address pool: 256 addresses from 0xE0000100 (224.0.1.0). *)
let first_addr = 0xE0000100
let pool_size = 256

type t = {
  mutable next_fresh : int;  (* addresses never issued yet *)
  mutable returned : addr list;  (* revoked, reusable *)
  issued : (addr, unit) Hashtbl.t;
  logs : (addr, (float * event) list ref) Hashtbl.t;  (* newest first *)
  sessions : (session_id, addr) Hashtbl.t;  (* session -> its group *)
  mutable next_session : session_id;
}

let create () =
  {
    next_fresh = 0;
    returned = [];
    issued = Hashtbl.create 32;
    logs = Hashtbl.create 32;
    sessions = Hashtbl.create 16;
    next_session = 1;
  }

let group_exists t a = Hashtbl.mem t.issued a

let log_ref t a =
  match Hashtbl.find_opt t.logs a with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace t.logs a r;
    r

let record t ~group ~now event =
  if group_exists t group then begin
    let r = log_ref t group in
    r := (now, event) :: !r
  end

let allocate_group t ~now =
  let issue a =
    Hashtbl.replace t.issued a ();
    ignore (log_ref t a);
    ignore now;
    Ok a
  in
  match t.returned with
  | a :: rest ->
    t.returned <- rest;
    issue a
  | [] ->
    if t.next_fresh >= pool_size then Error "multicast address pool exhausted"
    else begin
      let a = first_addr + t.next_fresh in
      t.next_fresh <- t.next_fresh + 1;
      issue a
    end

let active_sessions t ~group =
  Hashtbl.fold
    (fun sid g acc -> if g = group then sid :: acc else acc)
    t.sessions []
  |> List.sort Int.compare

let revoke_group t a =
  if not (group_exists t a) then Error "unknown group"
  else if active_sessions t ~group:a <> [] then
    Error "group has active sessions"
  else begin
    Hashtbl.remove t.issued a;
    t.returned <- t.returned @ [ a ];
    Ok ()
  end

let start_session t ~group ~now =
  if not (group_exists t group) then Error "unknown group"
  else begin
    let sid = t.next_session in
    t.next_session <- sid + 1;
    Hashtbl.replace t.sessions sid group;
    record t ~group ~now (Session_started sid);
    Ok sid
  end

let end_session t sid ~now =
  match Hashtbl.find_opt t.sessions sid with
  | None -> Error "unknown session"
  | Some group ->
    Hashtbl.remove t.sessions sid;
    record t ~group ~now (Session_ended sid);
    Ok ()

let log t ~group =
  match Hashtbl.find_opt t.logs group with
  | None -> []
  | Some r -> List.rev !r

let count t ~group pred =
  List.length (List.filter (fun (_, e) -> pred e) (log t ~group))

let join_count t ~group =
  count t ~group (function Member_joined _ -> true | _ -> false)

let data_count t ~group =
  count t ~group (function Data_forwarded _ -> true | _ -> false)

let current_members t ~group =
  let balance = Hashtbl.create 16 in
  List.iter
    (fun (_, e) ->
      let bump x d =
        Hashtbl.replace balance x (d + Option.value ~default:0 (Hashtbl.find_opt balance x))
      in
      match e with
      | Member_joined x -> bump x 1
      | Member_left x -> bump x (-1)
      | Data_forwarded _ | Session_started _ | Session_ended _ -> ())
    (log t ~group);
  Hashtbl.fold (fun x b acc -> if b > 0 then x :: acc else acc) balance []
  |> List.sort Int.compare
