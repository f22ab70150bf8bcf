let default_alpha = 0.25
let default_beta = 0.2

let generate ?(alpha = default_alpha) ?(beta = default_beta) ~seed ~n () =
  if n < 2 then invalid_arg "Waxman.generate: need at least two nodes";
  if alpha <= 0.0 || beta <= 0.0 then
    invalid_arg "Waxman.generate: alpha and beta must be positive";
  let rng = Scmp_util.Prng.create seed in
  let coords = Spec.random_coords rng n in
  let b = Netgraph.Graph.Builder.create n in
  let l = float_of_int Spec.max_distance in
  let link u v =
    let cost = float_of_int (Spec.manhattan coords.(u) coords.(v)) in
    let delay = Spec.uniform_delay rng ~cost in
    Netgraph.Graph.Builder.add_link b u v ~delay ~cost
  in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = float_of_int (Spec.manhattan coords.(u) coords.(v)) in
      let p = beta *. exp (-.d /. (alpha *. l)) in
      if Scmp_util.Prng.chance rng p then link u v
    done
  done;
  (* Stitch any disconnected components onto the main one via the
     geometrically shortest missing link, repeating until connected. *)
  let rec connect () =
    match Netgraph.Graph.Builder.components b with
    | [] | [ _ ] -> ()
    | main :: rest ->
      let stray = List.hd rest in
      let best = ref None in
      List.iter
        (fun u ->
          List.iter
            (fun v ->
              let d = Spec.manhattan coords.(u) coords.(v) in
              match !best with
              | Some (bd, _, _) when bd <= d -> ()
              | _ -> best := Some (d, u, v))
            stray)
        main;
      (match !best with
      | Some (_, u, v) -> link u v
      | None -> assert false);
      connect ()
  in
  connect ();
  Spec.make ~name:(Printf.sprintf "waxman-%d" n)
    ~graph:(Netgraph.Graph.Builder.freeze b) ~coords
