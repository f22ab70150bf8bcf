let render ?(name = "network") ?coords ?(highlight = []) ?(members = [])
    ?root g =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let canon (a, b) = (min a b, max a b) in
  let hot = List.map canon highlight in
  pr "graph \"%s\" {\n" name;
  pr "  node [shape=circle, fontsize=10, width=0.3, fixedsize=true];\n";
  pr "  edge [color=gray60];\n";
  for x = 0 to Graph.node_count g - 1 do
    let attrs = ref [] in
    (match coords with
    | Some c when x < Array.length c ->
      let cx, cy = c.(x) in
      (* Scale the 32767-grid to a ~10-inch canvas. *)
      !attrs
      |> List.cons
           (Printf.sprintf "pos=\"%.2f,%.2f!\"" (float_of_int cx /. 3000.0)
              (float_of_int cy /. 3000.0))
      |> fun l -> attrs := l
    | Some _ | None -> ());
    if List.mem x members then attrs := "style=filled" :: "fillcolor=lightblue" :: !attrs;
    if root = Some x then attrs := "shape=doublecircle" :: !attrs;
    if !attrs <> [] then pr "  %d [%s];\n" x (String.concat ", " !attrs)
  done;
  Graph.iter_links g (fun l ->
      let attrs = ref [] in
      if List.mem (canon (l.Graph.u, l.Graph.v)) hot then
        attrs := "color=red" :: "penwidth=2.5" :: !attrs;
      if !attrs = [] then pr "  %d -- %d;\n" l.Graph.u l.Graph.v
      else pr "  %d -- %d [%s];\n" l.Graph.u l.Graph.v (String.concat ", " !attrs));
  pr "}\n";
  Buffer.contents buf

let write_file path contents =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents);
    Ok ()
  with Sys_error e -> Error e
