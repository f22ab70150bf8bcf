type config = {
  net : Message.t Eventsim.Netsim.t;
  delivery : Delivery.t;
  center : Message.node;
}

type instance = {
  join : group:Message.group -> Message.node -> unit;
  leave : group:Message.group -> Message.node -> unit;
  send : group:Message.group -> src:Message.node -> seq:int -> unit;
  snapshots : unit -> Check.Invariant.snapshot list;
  verify : unit -> (unit, string) result;
  observe : Obs.Metrics.t -> unit;
  blackouts : unit -> float list;
}

module type S = sig
  val name : string
  val display : string
  val setup : config -> instance
end

type t = (module S)

let name (module D : S) = D.name
let display (module D : S) = D.display
let setup (module D : S) cfg = D.setup cfg

(* A baseline with no distributed-state snapshots to verify and no
   protocol-specific metrics; packet conservation still covers it. *)
let plain ~join ~leave ~send =
  {
    join;
    leave;
    send;
    snapshots = (fun () -> []);
    verify = (fun () -> Ok ());
    observe = (fun _ -> ());
    blackouts = (fun () -> []);
  }

(* ---- the six built-in drivers ---- *)

let scmp_setup distribution cfg =
  let p =
    Scmp_proto.create ~delivery:cfg.delivery ~distribution cfg.net
      ~mrouter:cfg.center ()
  in
  {
    join = Scmp_proto.host_join p;
    leave = Scmp_proto.host_leave p;
    send = Scmp_proto.send_data p;
    snapshots = (fun () -> Scmp_proto.snapshots p);
    verify = (fun () -> Scmp_proto.verify p);
    observe = (fun m -> Scmp_proto.observe p m);
    blackouts = (fun () -> Scmp_proto.blackouts p);
  }

module Scmp_driver = struct
  let name = "scmp"
  let display = "SCMP"
  let setup = scmp_setup Scmp_proto.Incremental
end

module Cbt_driver = struct
  let name = "cbt"
  let display = "CBT"

  let setup cfg =
    let p = Cbt.create ~delivery:cfg.delivery cfg.net ~core:cfg.center () in
    plain ~join:(Cbt.host_join p) ~leave:(Cbt.host_leave p)
      ~send:(Cbt.send_data p)
end

module Dvmrp_driver = struct
  let name = "dvmrp"
  let display = "DVMRP"

  let setup cfg =
    let p = Dvmrp.create ~delivery:cfg.delivery cfg.net () in
    plain ~join:(Dvmrp.host_join p) ~leave:(Dvmrp.host_leave p)
      ~send:(Dvmrp.send_data p)
end

module Mospf_driver = struct
  let name = "mospf"
  let display = "MOSPF"

  let setup cfg =
    let p = Mospf.create ~delivery:cfg.delivery cfg.net () in
    plain ~join:(Mospf.host_join p) ~leave:(Mospf.host_leave p)
      ~send:(Mospf.send_data p)
end

module Pim_sm_driver = struct
  let name = "pim-sm"
  let display = "PIM-SM"

  let setup cfg =
    let p = Pim_sm.create ~delivery:cfg.delivery cfg.net ~rp:cfg.center () in
    plain ~join:(Pim_sm.host_join p) ~leave:(Pim_sm.host_leave p)
      ~send:(Pim_sm.send_data p)
end

module Hpim_dm_driver = struct
  let name = "hpim-dm"
  let display = "HPIM-DM"

  let setup cfg =
    let p = Hpim_dm.create ~delivery:cfg.delivery cfg.net () in
    {
      (plain ~join:(Hpim_dm.host_join p) ~leave:(Hpim_dm.host_leave p)
         ~send:(Hpim_dm.send_data p))
      with
      verify = (fun () -> Hpim_dm.verify p);
      observe = (fun m -> Hpim_dm.observe p m);
    }
end

(* ---- variants outside the list ---- *)

(* §III.E's BRANCH-vs-TREE ablation: SCMP with every membership change
   distributed as a full TREE packet. *)
let scmp_always_full_tree : t =
  (module struct
    let name = "scmp-full-tree"
    let display = "SCMP (always TREE)"
    let setup = scmp_setup Scmp_proto.Always_full_tree
  end)

(* ---- the driver list ---- *)

let builtins : t list =
  [
    (module Scmp_driver);
    (module Cbt_driver);
    (module Dvmrp_driver);
    (module Mospf_driver);
    (module Pim_sm_driver);
    (module Hpim_dm_driver);
  ]

let all () = builtins
let names () = List.map name builtins

(* Resolvable by name, so a manifest can run a variant, but never listed:
   [all] and [names] stay the six protocols a comparison runs. *)
let variants : t list = [ scmp_always_full_tree ]

let find key =
  let key' = String.lowercase_ascii key in
  match List.find_opt (fun d -> name d = key') (builtins @ variants) with
  | Some d -> Ok d
  | None ->
    Error
      (Printf.sprintf "unknown protocol %S (known: %s)" key
         (String.concat ", " (names ())))

let find_exn key =
  match find key with Ok d -> d | Error msg -> invalid_arg msg

let rec find_all = function
  | [] -> Ok []
  | name :: rest ->
    Result.bind (find name) (fun d ->
        Result.map (fun pairs -> (name, d) :: pairs) (find_all rest))
