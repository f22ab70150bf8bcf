type t = { children : (int * t) list }

let of_tree tree ~at =
  if not (Mtree.Tree.on_tree tree at) then
    invalid_arg "Tree_packet.of_tree: node is not on the tree";
  let rec sub x =
    { children = List.map (fun c -> (c, sub c)) (Mtree.Tree.children tree x) }
  in
  sub at

let split t = t.children

let nodes t ~at =
  let rec collect x { children } acc =
    List.fold_left (fun acc (c, sub) -> collect c sub acc) (x :: acc) children
  in
  List.rev (collect at t [])

let rec encode t =
  List.length t.children
  :: List.concat_map
       (fun (addr, sub) ->
         let body = encode sub in
         addr :: List.length body :: body)
       t.children

let size t = List.length (encode t)

let decode words =
  (* [parse ws] consumes one packet from the front, returning it and the
     leftover words. *)
  let rec parse = function
    | [] -> Error "truncated packet: missing child count"
    | count :: rest ->
      if count < 0 then Error "negative child count"
      else begin
        let rec children k ws acc =
          if k = 0 then Ok (List.rev acc, ws)
          else
            match ws with
            | addr :: len :: tail ->
              if len < 0 then Error "negative sub-packet length"
              else if List.length tail < len then Error "truncated sub-packet"
              else begin
                let body = List.filteri (fun i _ -> i < len) tail in
                let remainder = List.filteri (fun i _ -> i >= len) tail in
                match parse body with
                | Error _ as e -> e
                | Ok (sub, leftover) ->
                  if leftover <> [] then Error "sub-packet length overshoots its body"
                  else children (k - 1) remainder ((addr, sub) :: acc)
              end
            | _ -> Error "truncated packet: missing child header"
        in
        match children count rest [] with
        | Error _ as e -> e
        | Ok (children, leftover) -> Ok ({ children }, leftover)
      end
  in
  match parse words with
  | Error _ as e -> e
  | Ok (t, []) -> Ok t
  | Ok (_, _ :: _) -> Error "trailing words after packet"
