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

let rec size t =
  List.fold_left (fun acc (_, sub) -> acc + 2 + size sub) 1 t.children

(* One pass over the words: [parse ws avail] consumes one packet from
   the first [avail] words of [ws] and returns it, the words after it
   and how many of the [avail] it left. A sub-packet is parsed in place
   with its declared length as its bound, so no body is ever copied or
   measured. *)
let decode words =
  let rec parse ws avail =
    match ws with
    | count :: rest when avail > 0 ->
      if count < 0 then Error "negative child count"
      else children count rest (avail - 1) []
    | _ -> Error "truncated packet: missing child count"
  and children k ws avail acc =
    if k = 0 then Ok ({ children = List.rev acc }, ws, avail)
    else
      match ws with
      | addr :: len :: tail when avail >= 2 ->
        let avail = avail - 2 in
        if len < 0 then Error "negative sub-packet length"
        else if avail < len then Error "truncated sub-packet"
        else begin
          match parse tail len with
          | Error _ as e -> e
          | Ok (_, _, left) when left > 0 ->
            Error "sub-packet length overshoots its body"
          | Ok (sub, rest, _) -> children (k - 1) rest (avail - len) ((addr, sub) :: acc)
        end
      | _ -> Error "truncated packet: missing child header"
  in
  match parse words (List.length words) with
  | Error _ as e -> e
  | Ok (t, _, 0) -> Ok t
  | Ok _ -> Error "trailing words after packet"
