module N = Eventsim.Netsim

type node = Message.node

let pk x g = (x lsl 32) lor g
let pk_hi k = k lsr 32
let pk_lo k = k land 0xFFFF_FFFF

let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> y = x || mem_int x rest

type entry = {
  mutable upstream : node option;
  mutable downstream : node list;
  mutable member : bool;
  mutable ep : int;
}

let fresh_entry ~member ~ep = { upstream = None; downstream = []; member; ep }

(* ---------------- Packed-key maps ---------------- *)

(* Open addressing with linear probing over a power-of-two slot array,
   kept at most half full. A key is a packed int ([pk router group] or
   the like), never negative, so -1 marks a vacant slot. Deletion
   shifts later members of the probe run back (no tombstones), so a
   lookup stops at the first vacant slot. A lookup returns a slot
   index, not an option: the data plane reads a value without
   allocating. *)
type 'v map = {
  mutable keys : int array;
  mutable vals : 'v array;
  mutable size : int;
  filler : 'v;  (* what a vacant [vals] slot holds; never returned *)
}

type table = entry map

let vacant = -1
let map filler = { keys = Array.make 64 vacant; vals = Array.make 64 filler; size = 0; filler }
let create () = map (fresh_entry ~member:false ~ep:0)

(* Folding the router field (bits 32+) onto the group field before the
   odd multiply makes the low bits the mask keeps a bijection of the
   low router bits for a fixed group: routers of one group never share
   a home slot in a table larger than the router count. *)
let home_slot keys k = (k lxor (k lsr 32)) * 0x9E3779B1 land (Array.length keys - 1)

(* The probe loops are top-level functions, not local closures over the
   key array: a closure would be allocated on every lookup. *)
let rec probe keys k i =
  let kk = Array.unsafe_get keys i in
  if kk = k then i
  else if kk = vacant then -1
  else probe keys k ((i + 1) land (Array.length keys - 1))

let slot tbl k = probe tbl.keys k (home_slot tbl.keys k)

let rec free_slot keys i =
  if Array.unsafe_get keys i = vacant then i
  else free_slot keys ((i + 1) land (Array.length keys - 1))

let grow tbl =
  let okeys = tbl.keys and ovals = tbl.vals in
  let cap = 2 * Array.length okeys in
  let keys = Array.make cap vacant and vals = Array.make cap tbl.filler in
  Array.iteri
    (fun i k ->
      if k <> vacant then begin
        let j = free_slot keys (home_slot keys k) in
        keys.(j) <- k;
        vals.(j) <- ovals.(i)
      end)
    okeys;
  tbl.keys <- keys;
  tbl.vals <- vals

let find_opt tbl k =
  match slot tbl k with -1 -> None | i -> Some (Array.unsafe_get tbl.vals i)

let find_slot = slot
let value tbl i = tbl.vals.(i)
let find_or tbl k ~default = match slot tbl k with -1 -> default | i -> tbl.vals.(i)
let mem tbl k = slot tbl k >= 0

let replace tbl k e =
  match slot tbl k with
  | -1 ->
    if 2 * (tbl.size + 1) > Array.length tbl.keys then grow tbl;
    let i = free_slot tbl.keys (home_slot tbl.keys k) in
    tbl.keys.(i) <- k;
    tbl.vals.(i) <- e;
    tbl.size <- tbl.size + 1
  | i -> tbl.vals.(i) <- e

(* Backward-shift deletion: walk the probe run after the hole and move
   back every entry whose home does not lie cyclically in (hole, j]. *)
let remove tbl k =
  match slot tbl k with
  | -1 -> ()
  | i ->
    let keys = tbl.keys and vals = tbl.vals in
    let mask = Array.length keys - 1 in
    let rec shift hole j =
      let kj = keys.(j) in
      if kj = vacant then begin
        keys.(hole) <- vacant;
        vals.(hole) <- tbl.filler
      end
      else begin
        let h = home_slot keys kj in
        let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
        if stays then shift hole ((j + 1) land mask)
        else begin
          keys.(hole) <- kj;
          vals.(hole) <- vals.(j);
          shift j ((j + 1) land mask)
        end
      end
    in
    shift i ((i + 1) land mask);
    tbl.size <- tbl.size - 1

let fold f tbl acc =
  let keys = tbl.keys and vals = tbl.vals in
  let acc = ref acc in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> vacant then acc := f k vals.(i) !acc
  done;
  !acc

let iter f tbl = fold (fun k e () -> f k e) tbl ()

(* ---------------- The forwarding step (§III.F) ---------------- *)

(* One loop sends a packet over an F set — upstream first, then the
   downstream list in order, skipping [except] (-1 skips nothing).
   Top-level and closure-free: a per-packet [List.iter] closure would
   allocate on every hop. *)
let rec send_list net ~src ~except msg = function
  | [] -> ()
  | y :: rest ->
    if y <> except then N.transmit net ~src ~dst:y msg;
    send_list net ~src ~except msg rest

let send_f net e ~src ~except msg =
  (match e.upstream with
  | Some u when u <> except -> N.transmit net ~src ~dst:u msg
  | Some _ | None -> ());
  send_list net ~src ~except msg e.downstream

let step net tbl ~x ~group ~from msg =
  match slot tbl (pk x group) with
  | -1 -> false
  | i ->
    let e = Array.unsafe_get tbl.vals i in
    let from_upstream =
      match e.upstream with Some u -> u = from | None -> false
    in
    if from_upstream || mem_int from e.downstream then begin
      send_f net e ~src:x ~except:from msg;
      e.member
    end
    else false

let originate net e ~src msg = send_f net e ~src ~except:(-1) msg
let send_downstream net e ~src msg = send_list net ~src ~except:(-1) msg e.downstream

(* ---------------- The downward step (PIM-SM) ---------------- *)

let rec send_down net ~src ~except ~pruned ~source msg = function
  | [] -> ()
  | y :: rest ->
    if y <> except && not (mem_int (pk y source) pruned) then
      N.transmit net ~src ~dst:y msg;
    send_down net ~src ~except ~pruned ~source msg rest

(* ---------------- The neighbour fan-out ---------------- *)

(* Router [x]'s neighbours are CSR slots [off.(x) .. off.(x+1) - 1], in
   the order the links were added. *)
let rec fan_slots net nbr ~x ~from keep st msg i stop sent =
  if i = stop then sent
  else
    let y = Array.unsafe_get nbr i in
    if y <> from && keep st i y then begin
      N.transmit net ~src:x ~dst:y msg;
      fan_slots net nbr ~x ~from keep st msg (i + 1) stop (sent + 1)
    end
    else fan_slots net nbr ~x ~from keep st msg (i + 1) stop sent

let fan_out net ~x ~from ~keep st msg =
  let g = N.graph net in
  let off = Netgraph.Graph.csr_offsets g in
  fan_slots net (Netgraph.Graph.csr_neighbors g) ~x ~from keep st msg off.(x)
    off.(x + 1) 0

let rec any_slot nbr ~from keep st i stop =
  i < stop
  &&
  let y = Array.unsafe_get nbr i in
  (y <> from && keep st i y) || any_slot nbr ~from keep st (i + 1) stop

let any_neighbour g ~x ~from ~keep st =
  let off = Netgraph.Graph.csr_offsets g in
  any_slot (Netgraph.Graph.csr_neighbors g) ~from keep st off.(x) off.(x + 1)

let rec slot_of nbr y i stop =
  if i = stop then -1 else if Array.unsafe_get nbr i = y then i else slot_of nbr y (i + 1) stop

let link_slot g x y =
  let off = Netgraph.Graph.csr_offsets g in
  slot_of (Netgraph.Graph.csr_neighbors g) y off.(x) off.(x + 1)
