type ('k, 'v) slots = {
  keys : 'k option array;
  vals : 'v Weak.t;
  mutable next : int;
  hold : int;
  mutable held : 'v list;  (* the [hold] most recently returned, newest first *)
}

type ('k, 'v) t = ('k, 'v) slots Domain.DLS.key

let slots = 8

let create ?(hold = 0) () =
  Domain.DLS.new_key (fun () ->
      { keys = Array.make slots None; vals = Weak.create slots; next = 0; hold;
        held = [] })

(* Values are compared as objects, never by structure. *)
let retain m v =
  if m.hold > 0 then
    m.held <-
      v
      :: List.filteri
           (fun i _ -> i < m.hold - 1)
           (List.filter (fun h -> h != v (* lint: allow physical-eq *)) m.held)

let find t ~same key make =
  let m = Domain.DLS.get t in
  let rec probe i =
    if i = slots then None
    else
      match m.keys.(i) with
      | Some k when same k key -> Some i
      | Some _ | None -> probe (i + 1)
  in
  let store i =
    let v = make () in
    m.keys.(i) <- Some key;
    Weak.set m.vals i (Some v);
    v
  in
  let v =
    match probe 0 with
    | Some i -> (match Weak.get m.vals i with Some v -> v | None -> store i)
    | None ->
      let i = m.next in
      m.next <- (i + 1) mod slots;
      store i
  in
  retain m v;
  v
