type t = {
  name : string;
  graph : Netgraph.Graph.t;
  coords : (int * int) array;
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
  Netgraph.Graph.map_links t.graph ~f:(fun l ->
      (l.Netgraph.Graph.delay *. 3e-6, l.Netgraph.Graph.cost))

let uniform_delay rng ~cost =
  let d = Scmp_util.Prng.float rng cost in
  if d <= 0.0 then cost *. 0.5 else d

let check t =
  let n = Netgraph.Graph.node_count t.graph in
  if Array.length t.coords <> n then
    invalid_arg (t.name ^ ": coords/node count mismatch");
  if not (Netgraph.Graph.is_connected t.graph) then
    invalid_arg (t.name ^ ": graph is not connected")
