let generate ~seed ~n ~avg_degree =
  if n < 2 then invalid_arg "Flat_random.generate: need at least two nodes";
  let target_links =
    int_of_float (Float.round (avg_degree *. float_of_int n /. 2.0))
  in
  if target_links < n - 1 then
    invalid_arg "Flat_random.generate: average degree below spanning tree";
  if target_links > n * (n - 1) / 2 then
    invalid_arg "Flat_random.generate: average degree exceeds complete graph";
  let rng = Scmp_util.Prng.create seed in
  let coords = Spec.random_coords rng n in
  let b = Netgraph.Graph.Builder.create n in
  let link u v =
    let cost = float_of_int (Spec.manhattan coords.(u) coords.(v)) in
    let delay = Spec.uniform_delay rng ~cost in
    Netgraph.Graph.Builder.add_link b u v ~delay ~cost
  in
  (* Random spanning tree: attach each node (in shuffled order) to a
     uniformly chosen, already-attached node. *)
  let order = Array.init n (fun i -> i) in
  Scmp_util.Prng.shuffle rng order;
  for i = 1 to n - 1 do
    let attach_to = order.(Scmp_util.Prng.int rng i) in
    link order.(i) attach_to
  done;
  (* Extra links drawn uniformly over the missing pairs. *)
  let added = ref (n - 1) in
  while !added < target_links do
    let u = Scmp_util.Prng.int rng n in
    let v = Scmp_util.Prng.int rng n in
    if u <> v && not (Netgraph.Graph.Builder.has_link b u v) then begin
      link u v;
      incr added
    end
  done;
  Spec.make
    ~name:(Printf.sprintf "random-%d-deg%g" n avg_degree)
    ~graph:(Netgraph.Graph.Builder.freeze b) ~coords
