(* Entries carry an insertion sequence number so that equal keys pop in
   FIFO order: the event engine relies on this for determinism. *)
type 'a entry = { key : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  capacity_hint : int;
}

let create ?(capacity = 16) () =
  { data = [||]; size = 0; next_seq = 0; capacity_hint = max capacity 1 }

let length t = t.size
let is_empty t = t.size = 0

let lt a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

(* Grow using [fill] (the entry about to be inserted) as the filler, so no
   dummy value is ever fabricated. *)
let ensure_room t fill =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let new_cap = max t.capacity_hint (max 1 (2 * cap)) in
    let data = Array.make new_cap fill in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && lt t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && lt t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let add t ~key value =
  let entry = { key; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  ensure_room t entry;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t =
  if t.size = 0 then None
  else
    let e = t.data.(0) in
    Some (e.key, e.value)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      (* Drop the dead slot's reference so the GC can reclaim the value. *)
      t.data.(t.size) <- t.data.(0);
      sift_down t 0
    end
    else
      (* Popping the last entry: no live entry is left to alias the dead
         slot to, and we cannot fabricate a dummy ['a], so release the
         whole backing array. [ensure_room] re-allocates
         at [capacity_hint] on the next [add]. *)
      t.data <- [||];
    Some (top.key, top.value)
  end

let iter t f =
  for i = 0 to t.size - 1 do
    let e = t.data.(i) in
    f e.key e.value
  done
