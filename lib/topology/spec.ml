type t = {
  name : string;
  graph : Netgraph.Graph.t;
  coords : (int * int) array;
  (* [sim_graph]'s result, made on first use. Two domains that race on
     an empty slot each build and store a graph equal to the other's,
     so either write is correct; only the physical sharing is lost. *)
  mutable sim : Netgraph.Graph.t option;
}

let grid_size = 32767

let manhattan (x1, y1) (x2, y2) = abs (x1 - x2) + abs (y1 - y2)

let max_distance = 2 * grid_size

let random_coords rng n =
  let seen = Hashtbl.create (2 * n) in
  Array.init n (fun _ ->
      let rec draw () =
        let p = (Scmp_util.Prng.int rng (grid_size + 1), Scmp_util.Prng.int rng (grid_size + 1)) in
        if Hashtbl.mem seen p then draw ()
        else begin
          Hashtbl.add seen p ();
          p
        end
      in
      draw ())

let sim_graph t =
  match t.sim with
  | Some g -> g
  | None ->
    let g =
      Netgraph.Graph.map_links t.graph ~f:(fun l ->
          (l.Netgraph.Graph.delay *. 3e-6, l.Netgraph.Graph.cost))
    in
    t.sim <- Some g;
    g

let uniform_delay rng ~cost =
  let d = Scmp_util.Prng.float rng cost in
  if d <= 0.0 then cost *. 0.5 else d

let make ~name ~graph ~coords =
  if Array.length coords <> Netgraph.Graph.node_count graph then
    invalid_arg (name ^ ": coords/node count mismatch");
  if not (Netgraph.Graph.is_connected graph) then
    invalid_arg (name ^ ": graph is not connected");
  { name; graph; coords; sim = None }
