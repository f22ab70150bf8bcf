(* Monotone bucket ("radix") heap over non-negative float keys with int
   payloads — the Dijkstra frontier (node ids) and the event engine's
   scheduler (event handles).

   Exploits monotone extraction: every key added is >= the last
   extracted minimum (Dijkstra pushes d + w >= d; a simulation clock
   only moves forward), so entries can be binned by the position of the
   highest bit in which their key's image differs from the floor — the
   image of the last extracted minimum. Bucket 0 holds keys equal to the
   floor and pops in O(1) off a read cursor; when it drains, the lowest
   non-empty bucket is either min-scanned in place (small buckets, the
   common case for both frontiers) or redistributed against an advanced
   floor — each entry lands in a strictly lower bucket (the classic
   radix-heap argument), so an entry is moved O(63) times over its
   lifetime.

   Equal keys pop in global FIFO (insertion) order: equal keys always
   compute the same bucket index at any floor, appends preserve arrival
   order, redistribution scans a bucket front-to-back, and the small-
   bucket min-scan takes the *first* minimal entry. This matches
   {!Heap}'s seq-number tie rule, which Dijkstra's byte-identical
   tie-breaking and the engine's whole-run determinism both rest on.

   Keys are stored as native-int images, not floats: for non-negative
   floats the IEEE-754 bit pattern is order-isomorphic to the value,
   and subtracting 2^62 shifts the 63-bit pattern range [0, 2^63) into
   the OCaml int range [-2^62, 2^62) while preserving order. Bucket
   occupancy is a single int bitmask, so the lowest non-empty bucket is
   found with bit tricks instead of a linear scan.

   Payloads are ints, so a popped slot holds nothing alive and the
   buckets keep their storage when the queue drains: an event queue
   that empties and refills, or a reused Dijkstra workspace, does not
   reallocate its buckets, and a payload store is a plain write with no
   write barrier. *)

type bucket = {
  mutable keys : int array;  (* shifted IEEE-754 images *)
  mutable vals : int array;
  mutable len : int;
}

(* Bucket 0 = image equal to the floor; bucket 1+i = highest differing
   image bit is bit i (i in 0..62). Occupancy bit i of [occ] tracks
   bucket i+1 (bucket 0 never participates in redistribution, and
   1 lsl 62 is the last representable bit). *)
let nbuckets = 64

type t = {
  mutable ifloor : int;  (* image of the last extracted minimum *)
  buckets : bucket array;
  mutable occ : int;  (* bit i set <=> bucket i+1 non-empty *)
  mutable lowbi : int;
      (* index of the lowest non-empty bucket above 0 whenever
         [occ <> 0] (meaningless otherwise) *)
  mutable size : int;
  mutable head : int;  (* read cursor into bucket 0 *)
  (* Located-minimum memo: [min_image] caches where the current minimum
     lives so the peek-then-pop pattern of a drain loop costs one
     search, not two. Valid iff [mbi >= 0]; any pop and any add below
     the cached image invalidate it. *)
  mutable mbi : int;
  mutable mslot : int;
  mutable mik : int;
}

let image f =
  Int64.to_int (Int64.sub (Int64.bits_of_float f) 0x4000_0000_0000_0000L)

let key_of_image i =
  Int64.float_of_bits (Int64.add (Int64.of_int i) 0x4000_0000_0000_0000L)

let image_zero = image 0.0

(* msb_tbl.[v] = index of the most significant set bit of a byte
   (msb_tbl.[0] unused): a table lookup plus a byte-granular binary
   search keeps [msb63] branch-light and ref-free. *)
let msb_tbl =
  String.init 256 (fun v ->
      let rec go n v = if v <= 1 then n else go (n + 1) (v lsr 1) in
      Char.chr (go 0 v))

let msb8 v = Char.code (String.unsafe_get msb_tbl v)

(* Index of the most significant set bit of a value in [1, 2^63).
   Inlined at every use: under the non-flambda compiler a call on the
   add path costs more than the work itself. *)
let[@inline] msb63 v =
  if v lsr 32 <> 0 then
    if v lsr 48 <> 0 then
      if v lsr 56 <> 0 then 56 + msb8 (v lsr 56) else 48 + msb8 (v lsr 48)
    else if v lsr 40 <> 0 then 40 + msb8 (v lsr 40)
    else 32 + msb8 (v lsr 32)
  else if v lsr 16 <> 0 then
    if v lsr 24 <> 0 then 24 + msb8 (v lsr 24) else 16 + msb8 (v lsr 16)
  else if v lsr 8 <> 0 then 8 + msb8 (v lsr 8)
  else msb8 v

(* The bucket of image [ik] against floor image [fl] (ik >= fl): at
   most 63, since the lxor of two images has bits 0..62 only. *)
let[@inline] bucket_of fl ik =
  let d = ik lxor fl in
  if d = 0 then 0 else 1 + msb63 d

(* The lowest set bit's bucket, for a non-zero occupancy mask. *)
let[@inline] lowest occ = 1 + msb63 (occ land -occ)

(* Slot of the first minimal key among [keys.(0 .. len-1)], len >= 1 —
   the earliest inserted among equal keys, the FIFO pop. *)
let[@inline] min_slot (keys : int array) len =
  let mi = ref 0 in
  for k = 1 to len - 1 do
    if Array.unsafe_get keys k < Array.unsafe_get keys !mi then mi := k
  done;
  !mi

let create () =
  {
    ifloor = image_zero;
    buckets =
      Array.init nbuckets (fun _ -> { keys = [||]; vals = [||]; len = 0 });
    occ = 0;
    lowbi = 0;
    size = 0;
    head = 0;
    mbi = -1;
    mslot = 0;
    mik = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let capacity t =
  Array.fold_left (fun acc b -> acc + Array.length b.keys) 0 t.buckets

let grow b =
  let cap = Array.length b.keys in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let keys = Array.make ncap 0 and vals = Array.make ncap 0 in
  Array.blit b.keys 0 keys 0 b.len;
  Array.blit b.vals 0 vals 0 b.len;
  b.keys <- keys;
  b.vals <- vals

let add_image t ik v =
  if ik < t.ifloor then
    invalid_arg "Radix_heap.add: key below the extracted minimum (or NaN)";
  let bi = bucket_of t.ifloor ik in
  let b = Array.unsafe_get t.buckets bi in
  if b.len = Array.length b.keys then grow b;
  Array.unsafe_set b.keys b.len ik;
  Array.unsafe_set b.vals b.len v;
  b.len <- b.len + 1;
  if bi > 0 then begin
    if t.occ = 0 || bi < t.lowbi then t.lowbi <- bi;
    t.occ <- t.occ lor (1 lsl (bi - 1))
  end;
  t.size <- t.size + 1;
  (* An equal key appended later pops later (FIFO), so only a strictly
     smaller key can displace the located minimum. *)
  if t.mbi >= 0 && ik < t.mik then t.mbi <- -1

let add t ~key v =
  if not (key >= 0.0) then
    invalid_arg "Radix_heap.add: key below the extracted minimum (or NaN)";
  add_image t (image key) v

(* Buckets at or below this size are popped by direct min-scan instead
   of being redistributed; only larger buckets pay the floor-advancing
   rebin. Keeps the amortized bound while eliminating nearly all entry
   moves on Dijkstra- and event-sized frontiers. *)
let scan_threshold = 16

(* Classic lazy floor advance on bucket [b] (occupancy bit [low]): the
   bucket's minimum becomes the new floor, every entry re-bins strictly
   lower (equal-to-minimum entries land in bucket 0 in their original
   relative order), and entries in other buckets stay correctly binned
   because the new floor agrees with the old one above this bucket's
   bit. Afterwards the minimum run heads bucket 0. Only a pop may call
   this: the floor must not pass a key that can still be added. *)
let redistribute t b low =
  let keys = b.keys and vals = b.vals in
  let len = b.len in
  let ifloor = Array.unsafe_get keys (min_slot keys len) in
  t.ifloor <- ifloor;
  b.len <- 0;
  let buckets = t.buckets in
  let occ = ref (t.occ lxor low) in
  for k = 0 to len - 1 do
    let ik = Array.unsafe_get keys k in
    let bi = bucket_of ifloor ik in
    let v = Array.unsafe_get vals k in
    let dst = Array.unsafe_get buckets bi in
    if dst.len = Array.length dst.keys then grow dst;
    Array.unsafe_set dst.keys dst.len ik;
    Array.unsafe_set dst.vals dst.len v;
    dst.len <- dst.len + 1;
    if bi > 0 then occ := !occ lor (1 lsl (bi - 1))
  done;
  t.occ <- !occ;
  if !occ <> 0 then t.lowbi <- lowest !occ

(* Locate the current minimum and memoize its position. The global
   minimum lives in the lowest non-empty bucket regardless of how far
   the floor trails it (bucket order is key order for keys >= floor):
   bucket 0's head when it has entries, else the first minimal slot of
   the lowest bucket. A peek never moves the floor — a key between the
   last popped one and this minimum may still be added. *)
let min_image t =
  if t.size = 0 then max_int
  else if t.mbi >= 0 then t.mik
  else begin
    let b0 = Array.unsafe_get t.buckets 0 in
    if t.head < b0.len then begin
      t.mbi <- 0;
      t.mslot <- t.head;
      t.mik <- t.ifloor
    end
    else begin
      let bi = t.lowbi in
      let b = Array.unsafe_get t.buckets bi in
      let mi = min_slot b.keys b.len in
      t.mbi <- bi;
      t.mslot <- mi;
      t.mik <- Array.unsafe_get b.keys mi
    end;
    t.mik
  end

(* Consume the memo for a pop from a non-empty heap: the bucket holding
   the minimum, its slot left in [mslot]. A large bucket is
   redistributed first — the floor advances to the minimum being
   popped, and the minimum run then heads bucket 0. *)
let take t =
  if t.mbi < 0 then ignore (min_image t);
  let bi = t.mbi in
  t.mbi <- -1;
  let b = Array.unsafe_get t.buckets bi in
  if bi > 0 && b.len > scan_threshold then begin
    redistribute t b (1 lsl (bi - 1));
    t.mslot <- 0;
    0
  end
  else bi

(* Advance bucket 0's read cursor past [k] popped entries. *)
let consume_b0 t b0 k =
  t.head <- t.head + k;
  t.size <- t.size - k;
  if t.head = b0.len then begin
    b0.len <- 0;
    t.head <- 0
  end

(* Bookkeeping after bucket [bi] > 0 lost entries. *)
let shrunk t b bi =
  if b.len = 0 then begin
    t.occ <- t.occ lxor (1 lsl (bi - 1));
    if t.occ <> 0 then t.lowbi <- lowest t.occ
  end

let pop_min t =
  if t.size = 0 then invalid_arg "Radix_heap.pop_min: queue is empty";
  let bi = take t in
  let b = Array.unsafe_get t.buckets bi in
  let v = Array.unsafe_get b.vals t.mslot in
  if bi = 0 then consume_b0 t b 1
  else begin
    (* close the gap with a shift so the surviving FIFO order stands;
       at most [scan_threshold - 1] moves *)
    let keys = b.keys and vals = b.vals in
    for k = t.mslot to b.len - 2 do
      Array.unsafe_set keys k (Array.unsafe_get keys (k + 1));
      Array.unsafe_set vals k (Array.unsafe_get vals (k + 1))
    done;
    b.len <- b.len - 1;
    t.size <- t.size - 1;
    shrunk t b bi
  end;
  v

let pop t =
  if t.size = 0 then None
  else begin
    let ik = min_image t in
    let v = pop_min t in
    Some (key_of_image ik, v)
  end

(* The CSR Dijkstra drain — every search's, filtered or not — fused
   with the heap: pop the minimum, relax the popped node's CSR slots,
   push improved distances — until empty. This lives here, not in Netgraph.Dijkstra, because
   the non-flambda compiler never inlines across compilation units: as
   separate calls, the per-operation overhead (call + heap field
   reloads) costs more than the heap work itself. The graph reaches us
   as bare arrays precisely so the hot loop can share the heap's unit;
   Netgraph.Dijkstra remains the owning API (CSR views, workspaces,
   results) and documents the array contract.

   Caller contract (trusted, all accesses below are unsafe): node x's
   slots are [off.(x) .. ends.(x) - 1], so [off] and [ends] have at
   least n entries and every such range lies inside the CSR slot
   arrays [nbr]/[eid]/[wsel]/[woth]; [dist]/[pred]/[pred_edge]/[other]
   have length n; every payload already in the heap and every [nbr]
   value in a range is in [0, n); weights are non-negative and finite.
   A full graph passes [ends.(x) = off.(x + 1)]; a CSR view
   passes shorter ends, and the slots past them are never read. Keys
   pushed here are d + w >= d >= floor, so the monotonicity guard of
   [add] is unnecessary.

   A popped entry for x is fresh (x not yet settled) iff its key still
   equals [image dist.(x)]: a push happens only on a strict improvement,
   so no node ever has two equal-key entries, and any later entry for x
   carries a strictly smaller key and pops first. That makes the key
   itself the settled marker — no stamp array on this path.

   Pops happen one entry at a time in exactly [pop_min] order, and
   relaxations visit slots in CSR (insertion) order — byte-identical
   results to a drain loop built from the public per-op API.

   The cut: settles come in nondecreasing distance, so once [k] of the
   [reach + 1] nodes the search can settle (source included) are done,
   summing to [sum], with the last at [d], every remaining node is at
   least [d] away and the search's total distance is at least
   [sum + (reach + 1 - k) * d]. When that bound exceeds [cutoff] the
   drain stops before relaxing. With [cutoff = infinity] the test never
   fires and the drain is the uncut one. *)
let drain_csr t ~off ~ends ~nbr ~eid ~wsel ~woth ~dist ~pred
    ~pred_edge ~other ~reach ~cutoff =
  let buckets = t.buckets in
  let b0 = Array.unsafe_get buckets 0 in
  (* Heap state as locals: register-resident across the whole drain,
     written back once at the end. The occupancy bitmask is not
     maintained in the hot loop — the drain runs the heap to empty, so
     [occ = 0] is the truthful final state, and [lowbi] is kept as a
     never-stale-high hint instead: an add below it lowers it, a pop
     that finds its bucket empty scans upward to the next non-empty one
     (buckets below the hint are empty by induction). Total scan work
     is bounded by the number of times adds lower the hint, plus 63. *)
  let ifloor = ref t.ifloor in
  let lowbi = ref (if t.occ = 0 then 64 else t.lowbi) in
  let size = ref t.size in
  let head = ref t.head in
  (* key (image) of the entry the current iteration popped *)
  let pik = ref 0 in
  (* settles still to come, their distances so far, and the cut flag *)
  let left = ref (reach + 1) and sum = ref 0.0 and cut = ref false in
  while !size > 0 do
    let x =
      if !head < b0.len then begin
        pik := !ifloor;
        let v = Array.unsafe_get b0.vals !head in
        incr head;
        if !head = b0.len then begin
          b0.len <- 0;
          head := 0
        end;
        v
      end
      else begin
        let bi = ref !lowbi in
        while (Array.unsafe_get buckets !bi).len = 0 do incr bi done;
        let b = Array.unsafe_get buckets !bi in
        if b.len > scan_threshold then begin
          (* Floor advance: [redistribute] without the occupancy
             upkeep, on the drain's local floor — the fused loop keeps
             floor, size and lowest bucket in locals, not in [t].
             Afterwards the minimum heads bucket 0; the next non-b0
             pop re-finds the lowest bucket by the scan above. *)
          let keys = b.keys and vals = b.vals in
          let len = b.len in
          ifloor := Array.unsafe_get keys (min_slot keys len);
          b.len <- 0;
          let fl = !ifloor in
          for k = 0 to len - 1 do
            let ik = Array.unsafe_get keys k in
            let bj = bucket_of fl ik in
            let b' = Array.unsafe_get buckets bj in
            if b'.len = Array.length b'.keys then grow b';
            Array.unsafe_set b'.keys b'.len ik;
            Array.unsafe_set b'.vals b'.len (Array.unsafe_get vals k);
            b'.len <- b'.len + 1
          done;
          lowbi := 1;
          pik := !ifloor;
          let v = Array.unsafe_get b0.vals 0 in
          if b0.len = 1 then b0.len <- 0 else head := 1;
          v
        end
        else begin
          lowbi := !bi;
          (* Small-bucket min-scan pop (see [pop_min]). *)
          let keys = b.keys and vals = b.vals in
          let len = b.len in
          let mi = min_slot keys len in
          pik := Array.unsafe_get keys mi;
          let v = Array.unsafe_get vals mi in
          for k = mi to len - 2 do
            Array.unsafe_set keys k (Array.unsafe_get keys (k + 1));
            Array.unsafe_set vals k (Array.unsafe_get vals (k + 1))
          done;
          b.len <- len - 1;
          v
        end
      end
    in
    decr size;
    let d = Array.unsafe_get dist x in
    if image d = !pik then begin
      decr left;
      sum := !sum +. d;
      if !sum +. (float_of_int !left *. d) > cutoff then begin
        cut := true;
        size := 0
      end
      else begin
        let ox = Array.unsafe_get other x in
        for s = Array.unsafe_get off x to Array.unsafe_get ends x - 1 do
          let y = Array.unsafe_get nbr s in
          let nd = d +. Array.unsafe_get wsel s in
          if nd < Array.unsafe_get dist y then begin
            Array.unsafe_set dist y nd;
            Array.unsafe_set pred y x;
            Array.unsafe_set pred_edge y (Array.unsafe_get eid s);
            Array.unsafe_set other y (ox +. Array.unsafe_get woth s);
            (* add, inline *)
            let ik = image nd in
            let bi = bucket_of !ifloor ik in
            let b = Array.unsafe_get buckets bi in
            if b.len = Array.length b.keys then grow b;
            Array.unsafe_set b.keys b.len ik;
            Array.unsafe_set b.vals b.len y;
            b.len <- b.len + 1;
            if bi > 0 && bi < !lowbi then lowbi := bi;
            incr size
          end
        done
      end
    end
  done;
  (* A cut leaves entries behind: drop them by length alone, so the
     buckets keep their storage for the next search (an int payload
     holds nothing alive). *)
  if !cut then
    for i = 0 to nbuckets - 1 do
      (Array.unsafe_get buckets i).len <- 0
    done;
  (* Drained: occ/size/head are all zero again; keep the advanced
     floor so the post-state matches a per-op drain exactly. *)
  t.ifloor <- !ifloor;
  t.occ <- 0;
  t.size <- 0;
  t.head <- 0;
  t.mbi <- -1;
  not !cut

(* An empty queue needs no bucket reset: every bucket is already at
   len 0, so clearing a drained Dijkstra workspace is O(1). A non-empty
   queue drops its entries by length alone and keeps its storage. *)
let clear t =
  if t.size > 0 then
    Array.iter (fun b -> b.len <- 0) t.buckets;
  t.occ <- 0;
  t.size <- 0;
  t.head <- 0;
  t.mbi <- -1;
  t.ifloor <- image_zero
