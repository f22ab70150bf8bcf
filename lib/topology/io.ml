let to_string (t : Spec.t) =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = Netgraph.Graph.node_count t.graph in
  pr "scmp-topology 1\n";
  pr "name %s\n" t.name;
  pr "nodes %d\n" n;
  Array.iteri (fun i (x, y) -> pr "coord %d %d %d\n" i x y) t.coords;
  Netgraph.Graph.iter_links t.graph (fun l ->
      pr "link %d %d %.17g %.17g\n" l.Netgraph.Graph.u l.Netgraph.Graph.v
        l.Netgraph.Graph.delay l.Netgraph.Graph.cost);
  Buffer.contents buf

type parse_state = {
  mutable name : string option;
  mutable nodes : int option;
  mutable coords : (int * int * int) list;  (* node, x, y *)
  mutable links : (int * int * float * float) list;
}

let of_string text =
  let state = { name = None; nodes = None; coords = []; links = [] } in
  let error lineno what = Error (Printf.sprintf "line %d: %s" lineno what) in
  let parse_line lineno line =
    let words =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun w -> w <> "")
    in
    match words with
    | [] -> Ok ()
    | w :: _ when String.length w > 0 && w.[0] = '#' -> Ok ()
    | [ "scmp-topology"; "1" ] -> Ok ()
    | "scmp-topology" :: _ -> error lineno "unsupported format version"
    | [ "name"; n ] ->
      state.name <- Some n;
      Ok ()
    | [ "nodes"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        state.nodes <- Some n;
        Ok ()
      | Some 0 -> error lineno "a topology needs at least one node"
      | Some _ | None -> error lineno "bad node count")
    | [ "coord"; i; x; y ] -> (
      match (int_of_string_opt i, int_of_string_opt x, int_of_string_opt y) with
      | Some i, Some x, Some y ->
        state.coords <- (i, x, y) :: state.coords;
        Ok ()
      | _ -> error lineno "bad coord line")
    | [ "link"; u; v; delay; cost ] -> (
      match
        ( int_of_string_opt u,
          int_of_string_opt v,
          float_of_string_opt delay,
          float_of_string_opt cost )
      with
      | Some u, Some v, Some delay, Some cost ->
        state.links <- (u, v, delay, cost) :: state.links;
        Ok ()
      | _ -> error lineno "bad link line")
    | w :: _ -> error lineno (Printf.sprintf "unknown directive %S" w)
  in
  let lines = String.split_on_char '\n' text in
  let rec feed lineno = function
    | [] -> Ok ()
    | line :: rest -> (
      match parse_line lineno line with
      | Ok () -> feed (lineno + 1) rest
      | Error _ as e -> e)
  in
  match feed 1 lines with
  | Error _ as e -> e
  | Ok () -> (
    match (state.name, state.nodes) with
    | None, _ -> Error "missing name"
    | _, None -> Error "missing node count"
    | Some name, Some n -> (
      try
        (* Nothing of size [n] is allocated before the file has shown
           one coord line per node: a huge declared count is an error,
           not an allocation failure. *)
        let seen = Hashtbl.create 64 in
        List.iter
          (fun (i, _, _) ->
            if i < 0 || i >= n then failwith (Printf.sprintf "coord node %d out of range" i);
            if Hashtbl.mem seen i then
              failwith (Printf.sprintf "duplicate coord for node %d" i);
            Hashtbl.replace seen i ())
          state.coords;
        if Hashtbl.length seen < n then failwith "missing coord lines";
        let coords = Array.make n (0, 0) in
        List.iter (fun (i, x, y) -> coords.(i) <- (x, y)) state.coords;
        let g = Netgraph.Graph.of_links ~n (List.rev state.links) in
        Ok (Spec.make ~name ~graph:g ~coords)
      with
      | Failure msg -> Error msg
      | Invalid_argument msg -> Error msg))

let save t ~path =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string t));
    Ok ()
  with Sys_error e -> Error e

let load ~path =
  try
    let ic = open_in path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_string contents
  with Sys_error e -> Error e
