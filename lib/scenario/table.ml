(* Figure tables from a sweep report: the grid comes from the report's
   meta, the numbers from Ab's one reading of its metrics. *)

module T = Scmp_util.Texttab

let ( let* ) = Result.bind

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

let grid_list j field get =
  let missing = Error (Printf.sprintf "report meta has no %s list" field) in
  match Option.bind (Obs.Json.mem "meta" j) (Obs.Json.mem field) with
  | Some (Obs.Json.List (_ :: _ as xs)) ->
    collect (fun x -> Option.fold ~none:missing ~some:Result.ok (get x)) xs
  | _ -> missing

let string_item = function Obs.Json.String s -> Some s | _ -> None
let int_item = function Obs.Json.Int i -> Some i | _ -> None

let render j ~metric =
  let* metrics = Ab.metrics j in
  let* drivers = grid_list j "drivers" string_item in
  let* topos = grid_list j "topologies" string_item in
  let* sizes = grid_list j "group_sizes" int_item in
  let* seeds = grid_list j "seeds" int_item in
  let values = Hashtbl.of_seq (List.to_seq metrics) in
  let cell topo size driver seed =
    let key =
      Printf.sprintf "cell/%s/%s/k%d/s%d/%s" driver topo size seed metric
    in
    match Hashtbl.find_opt values key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "metric %S not present in report" key)
  in
  let mean topo size driver =
    let* xs = collect (cell topo size driver) seeds in
    Ok (List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length seeds))
  in
  let table topo =
    let* rows = collect (fun size -> collect (mean topo size) drivers) sizes in
    let tab =
      T.create
        (T.column ~align:T.Left "k" :: List.map (fun d -> T.column d) drivers)
    in
    List.iter2
      (fun size row -> T.add_float_row tab ~decimals:4 (string_of_int size) row)
      sizes rows;
    let title =
      Printf.sprintf "%s, %s (mean of %d seeds)" metric topo (List.length seeds)
    in
    Ok
      (Printf.sprintf "%s\n%s\n%s\n" title
         (String.make (String.length title) '=')
         (T.render tab))
  in
  let* tables = collect table topos in
  Ok (String.concat "\n" tables)
