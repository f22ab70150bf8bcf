(* Declarative scenario manifests: checked-in JSON documents that name
   a full comparison sweep — drivers, topologies, grid axes and the
   perturbation program — so an experiment is data reviewed in the
   repo, not a shell incantation. Parsing is strict (unknown keys are
   errors, and the perturbation program passes the same topology-free
   validator as [scmp_sim run]'s flags at load) and printing is
   canonical, so parse -> print -> parse is the identity on the typed
   form. *)

let schema = "scmp-scenario/1"

type t = {
  name : string;
  drivers : string list;
  topos : Exec.Sweep.topo list;
  group_sizes : int list;
  seeds : int list;
  packets : int;
  master_seed : int;
  perturbation : Exec.Sweep.perturbation;
  check : bool;
}

let ( let* ) r f = Result.bind r f

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

(* ---- readers over Obs.Json.t ---- *)

let field_error key what = Error (Printf.sprintf "field %S: expected %s" key what)

let get_string key = function
  | Obs.Json.String s -> Ok s
  | _ -> field_error key "a string"

let get_int key = function
  | Obs.Json.Int i -> Ok i
  | _ -> field_error key "an integer"

let get_float key = function
  | Obs.Json.Float f -> Ok f
  | Obs.Json.Int i -> Ok (float_of_int i)
  | _ -> field_error key "a number"

let get_bool key = function
  | Obs.Json.Bool b -> Ok b
  | _ -> field_error key "a boolean"

let get_list key f = function
  | Obs.Json.List xs -> collect (f key) xs
  | _ -> field_error key "a list"

let get_obj key = function
  | Obs.Json.Obj fields -> Ok fields
  | _ -> field_error key "an object"

let opt_field fields key f =
  match List.assoc_opt key fields with
  | None -> Ok None
  | Some v ->
    let* x = f key v in
    Ok (Some x)

let req_field fields key f =
  match List.assoc_opt key fields with
  | None -> Error (Printf.sprintf "missing required field %S" key)
  | Some v -> f key v

let with_default d = function Some x -> x | None -> d

let check_known_keys fields known =
  let unknown =
    List.filter_map
      (fun (k, _) -> if List.mem k known then None else Some k)
      fields
  in
  match unknown with
  | [] -> Ok ()
  | ks ->
    Error
      (Printf.sprintf "unknown manifest field(s): %s (known: %s)"
         (String.concat ", " ks) (String.concat ", " known))

(* ---- sub-objects ---- *)

let pkt_class_of_string key = function
  | "data" -> Ok (Some `Data)
  | "control" -> Ok (Some `Control)
  | "all" -> Ok None
  | s -> field_error key (Printf.sprintf "data, control or all (got %S)" s)

(* The perturbation sub-objects are read for shape only; their ranges
   are Exec.Sweep.validate_perturbation's, shared with [scmp_sim run]. *)
let loss_of_json key v =
  let* fields = get_obj key v in
  let* () = check_known_keys fields [ "rate"; "seed"; "class" ] in
  let* rate = req_field fields "rate" get_float in
  let* seed = req_field fields "seed" get_int in
  let* only =
    match List.assoc_opt "class" fields with
    | None -> Ok None
    | Some v ->
      let* s = get_string "class" v in
      pkt_class_of_string "class" s
  in
  Ok { Eventsim.Netsim.rate; seed; only }

let random_failures_of_json key v =
  let* fields = get_obj key v in
  let* () = check_known_keys fields [ "seed"; "count"; "restore_after" ] in
  let* rf_seed = req_field fields "seed" get_int in
  let* rf_count = req_field fields "count" get_int in
  let* rf_restore_after = opt_field fields "restore_after" get_float in
  Ok { Exec.Sweep.rf_seed; rf_count; rf_restore_after }

let churn_of_json key v =
  let* fields = get_obj key v in
  let* () = check_known_keys fields [ "interarrival"; "holding"; "seed" ] in
  let* cs_interarrival = req_field fields "interarrival" get_float in
  let* cs_holding = req_field fields "holding" get_float in
  let* cs_seed = opt_field fields "seed" get_int in
  Ok { Exec.Sweep.cs_interarrival; cs_holding; cs_seed }

let topo_of_json key v =
  let* s = get_string key v in
  Exec.Sweep.topo_of_string s

let driver_of_json key v =
  let* s = get_string key v in
  let* _ = Protocols.Driver.find s in
  Ok s

(* ---- the manifest itself ---- *)

let known =
  [
    "schema"; "name"; "drivers"; "topologies"; "group_sizes"; "seeds";
    "packets"; "master_seed"; "loss"; "link_failures"; "node_failures";
    "partitions"; "random_link_failures"; "churn"; "check";
  ]

let validate m =
  if m.drivers = [] then Error "field \"drivers\": must be non-empty"
  else if m.topos = [] then Error "field \"topologies\": must be non-empty"
  else if List.exists (fun k -> k < 1) m.group_sizes || m.group_sizes = [] then
    Error "field \"group_sizes\": must be a non-empty list of positive sizes"
  else if m.seeds = [] then Error "field \"seeds\": must be non-empty"
  else if m.packets < 1 then Error "field \"packets\": must be >= 1"
  else Result.map (fun () -> m) (Exec.Sweep.validate_perturbation m.perturbation)

let grid ~name ~drivers ~topos ~group_sizes ~seeds ~packets ~master_seed
    ~check =
  {
    name;
    drivers;
    topos;
    group_sizes;
    seeds;
    packets;
    master_seed;
    perturbation = Exec.Sweep.no_perturbation;
    check;
  }

let of_json j =
  let* fields = get_obj "manifest" j in
  let* () = check_known_keys fields known in
  let* s = req_field fields "schema" get_string in
  if s <> schema then
    Error (Printf.sprintf "schema %S is not %S" s schema)
  else
    let* name = req_field fields "name" get_string in
    let* drivers = req_field fields "drivers" (fun k v -> get_list k driver_of_json v) in
    let* topos =
      req_field fields "topologies" (fun k v -> get_list k topo_of_json v)
    in
    let* group_sizes = opt_field fields "group_sizes" (fun k v -> get_list k get_int v) in
    let* seeds = opt_field fields "seeds" (fun k v -> get_list k get_int v) in
    let* packets = opt_field fields "packets" get_int in
    let* master_seed = opt_field fields "master_seed" get_int in
    let* loss = opt_field fields "loss" loss_of_json in
    let lines key = opt_field fields key (fun k v -> get_list k get_string v) in
    let* link_failures = lines "link_failures" in
    let* node_failures = lines "node_failures" in
    let* partitions = lines "partitions" in
    let* random_link_failures =
      opt_field fields "random_link_failures" random_failures_of_json
    in
    let* churn = opt_field fields "churn" churn_of_json in
    let* check = opt_field fields "check" get_bool in
    let m =
      {
        name;
        drivers;
        topos;
        group_sizes = with_default [ 16 ] group_sizes;
        seeds = with_default [ 1 ] seeds;
        packets = with_default 30 packets;
        master_seed = with_default 1 master_seed;
        perturbation =
          {
            loss;
            link_failures = with_default [] link_failures;
            node_failures = with_default [] node_failures;
            partitions = with_default [] partitions;
            random_link_failures;
            churn;
          };
        check = with_default false check;
      }
    in
    validate m

let of_string s =
  match Obs.Json.of_string s with
  | Error e -> Error (Printf.sprintf "manifest is not valid JSON: %s" e)
  | Ok j -> of_json j

let load ~path =
  match
    In_channel.with_open_text path (fun ic -> In_channel.input_all ic)
  with
  | s -> of_string s
  | exception Sys_error e -> Error e

(* ---- canonical printing ---- *)

let to_json m =
  let strings xs = Obs.Json.List (List.map (fun s -> Obs.Json.String s) xs) in
  let ints xs = Obs.Json.List (List.map (fun i -> Obs.Json.Int i) xs) in
  let base =
    [
      ("schema", Obs.Json.String schema);
      ("name", Obs.Json.String m.name);
      ("drivers", strings m.drivers);
      ("topologies", strings (List.map Exec.Sweep.topo_to_string m.topos));
      ("group_sizes", ints m.group_sizes);
      ("seeds", ints m.seeds);
      ("packets", Obs.Json.Int m.packets);
      ("master_seed", Obs.Json.Int m.master_seed);
    ]
  in
  let p = m.perturbation in
  let optional =
    List.concat
      [
        (match p.loss with
        | None -> []
        | Some l ->
          [
            ( "loss",
              Obs.Json.Obj
                (( "rate", Obs.Json.Float l.Eventsim.Netsim.rate )
                 :: ("seed", Obs.Json.Int l.seed)
                 :: (match l.only with
                    | None -> []
                    | Some `Data -> [ ("class", Obs.Json.String "data") ]
                    | Some `Control -> [ ("class", Obs.Json.String "control") ]))
            );
          ]);
        (if p.link_failures = [] then []
         else [ ("link_failures", strings p.link_failures) ]);
        (if p.node_failures = [] then []
         else [ ("node_failures", strings p.node_failures) ]);
        (if p.partitions = [] then []
         else [ ("partitions", strings p.partitions) ]);
        (match p.random_link_failures with
        | None -> []
        | Some rf ->
          [
            ( "random_link_failures",
              Obs.Json.Obj
                (("seed", Obs.Json.Int rf.Exec.Sweep.rf_seed)
                 :: ("count", Obs.Json.Int rf.rf_count)
                 :: (match rf.rf_restore_after with
                    | None -> []
                    | Some d -> [ ("restore_after", Obs.Json.Float d) ])) );
          ]);
        (match p.churn with
        | None -> []
        | Some c ->
          [
            ( "churn",
              Obs.Json.Obj
                (("interarrival", Obs.Json.Float c.Exec.Sweep.cs_interarrival)
                 :: ("holding", Obs.Json.Float c.cs_holding)
                 :: (match c.cs_seed with
                    | None -> []
                    | Some s -> [ ("seed", Obs.Json.Int s) ])) );
          ]);
        (if m.check then [ ("check", Obs.Json.Bool true) ] else []);
      ]
  in
  Obs.Json.Obj (base @ optional)

let to_string ?(pretty = true) m = Obs.Json.to_string ~pretty (to_json m)

(* ---- lowering to an executable sweep ---- *)

let to_sweep m =
  Exec.Sweep.make ~packets:m.packets ~master_seed:m.master_seed
    ~perturbation:m.perturbation ~drivers:m.drivers ~topos:m.topos
    ~group_sizes:m.group_sizes ~seeds:m.seeds ()
