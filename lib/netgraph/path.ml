type t = Graph.node list

let edges path =
  let rec loop = function
    | a :: (b :: _ as rest) -> (a, b) :: loop rest
    | [ _ ] | [] -> []
  in
  loop path

let is_valid g path =
  match path with
  | [] -> false
  | nodes ->
    let distinct =
      let sorted = List.sort Int.compare nodes in
      let rec no_dup = function
        | a :: (b :: _ as rest) -> a <> b && no_dup rest
        | [ _ ] | [] -> true
      in
      no_dup sorted
    in
    distinct && List.for_all (fun (a, b) -> Graph.has_link g a b) (edges nodes)

let sum_by g f path =
  List.fold_left
    (fun acc (a, b) ->
      match f g a b with Some w -> acc +. w | None -> raise Not_found)
    0.0 (edges path)

let delay g path = sum_by g Graph.link_delay_opt path
let cost g path = sum_by g Graph.link_cost_opt path

let concat p q =
  match (List.rev p, q) with
  | last :: _, qh :: qt when last = qh -> p @ qt
  | _ -> invalid_arg "Path.concat: paths do not share an endpoint"
