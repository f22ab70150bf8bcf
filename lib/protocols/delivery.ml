(* Allocation-lean recorder: packets live in a dense array indexed by
   sequence number, and each packet's member set is a byte map over
   router ids (0 = non-member, 1 = member awaiting delivery,
   2 = delivered, 3 = non-member counted by [record_once]).
   [record] runs on the data fast path — once per
   delivery event — so it is a couple of array reads instead of three
   hashtable probes on a heap-allocated key, and it allocates nothing:
   the delay goes into a growable float array and the running mean and
   maximum sit in another, where floats are stored unboxed. *)

type packet = {
  sent_at : float;
  (* index = router id (up to the largest member, or the largest
     router [record_once] counted); anything beyond the map is a
     non-member. *)
  mutable state : Bytes.t;
}

type t = {
  engine : Eventsim.Engine.t;
  mutable packets : packet option array; (* index = seq *)
  mutable deliveries : int;
  mutable duplicates : int;
  mutable spurious : int;
  mutable expected : int; (* lifetime (seq, member) pairs declared *)
  mutable delays : float array; (* the first [deliveries] slots, in order *)
  running : float array; (* [| mean; max |] over those delays *)
}

let create engine =
  {
    engine;
    packets = Array.make 64 None;
    deliveries = 0;
    duplicates = 0;
    spurious = 0;
    expected = 0;
    delays = Array.make 64 0.0;
    running = [| 0.0; neg_infinity |];
  }

let ensure t seq =
  let n = Array.length t.packets in
  if seq >= n then begin
    let n' = max (seq + 1) (2 * n) in
    let fresh = Array.make n' None in
    Array.blit t.packets 0 fresh 0 n;
    t.packets <- fresh
  end

let expect t ~seq ~members ~sent_at =
  if seq < 0 then invalid_arg "Delivery.expect: negative seq";
  ensure t seq;
  (match t.packets.(seq) with
  | Some p ->
    (* Re-declaring a seq replaces it, as Hashtbl.replace did: retire
       the old packet's still-pending pairs from the expected total. *)
    Bytes.iter (fun c -> if c = '\001' then t.expected <- t.expected - 1) p.state
  | None -> ());
  let top = List.fold_left (fun acc x -> max acc x) (-1) members in
  let state = Bytes.make (top + 1) '\000' in
  List.iter
    (fun x ->
      if x < 0 then invalid_arg "Delivery.expect: negative member";
      if Bytes.get state x = '\000' then begin
        Bytes.set state x '\001';
        t.expected <- t.expected + 1
      end)
    members;
  t.packets.(seq) <- Some { sent_at; state }

let record t ~seq ~at_router =
  let p =
    if seq >= 0 && seq < Array.length t.packets then t.packets.(seq)
    else None
  in
  match p with
  | None -> t.spurious <- t.spurious + 1
  | Some p ->
    if at_router < 0 || at_router >= Bytes.length p.state then
      t.spurious <- t.spurious + 1
    else begin
      match Bytes.unsafe_get p.state at_router with
      | '\000' | '\003' -> t.spurious <- t.spurious + 1
      | '\002' -> t.duplicates <- t.duplicates + 1
      | _ ->
        Bytes.unsafe_set p.state at_router '\002';
        let delay = Eventsim.Engine.now t.engine -. p.sent_at in
        let n = t.deliveries in
        if n = Array.length t.delays then begin
          let fresh = Array.make (2 * n) 0.0 in
          Array.blit t.delays 0 fresh 0 n;
          t.delays <- fresh
        end;
        Array.unsafe_set t.delays n delay;
        t.deliveries <- n + 1;
        (* the incremental mean of {!Scmp_util.Stats.add}, term for term *)
        let r = t.running in
        r.(0) <- r.(0) +. ((delay -. r.(0)) /. float_of_int (n + 1));
        if delay > r.(1) then r.(1) <- delay
    end

(* A non-member counted once is marked 3, widening the map when it lies
   beyond it, so its next arrival is recognised. [record] stays the
   fast path every other caller takes, unchanged. *)
let record_once t ~seq ~at_router =
  let p =
    if seq >= 0 && seq < Array.length t.packets then t.packets.(seq)
    else None
  in
  match p with
  | Some p when at_router >= 0 -> (
    let len = Bytes.length p.state in
    match if at_router < len then Bytes.get p.state at_router else '\000' with
    | '\000' ->
      record t ~seq ~at_router;
      if at_router >= len then begin
        let state = Bytes.make (at_router + 1) '\000' in
        Bytes.blit p.state 0 state 0 len;
        p.state <- state
      end;
      Bytes.set p.state at_router '\003'
    | '\001' -> record t ~seq ~at_router
    | _ -> ())
  | Some _ | None -> record t ~seq ~at_router

let deliveries t = t.deliveries
let duplicates t = t.duplicates
let spurious t = t.spurious

(* Every delivery converts exactly one declared pair, so the pending
   count is a subtraction, not a fold over all packets. *)
let missed t = t.expected - t.deliveries

let max_delay t = if t.deliveries = 0 then 0.0 else t.running.(1)
let mean_delay t = if t.deliveries = 0 then 0.0 else t.running.(0)

let iter_delays t f =
  for i = t.deliveries - 1 downto 0 do
    f (Array.unsafe_get t.delays i)
  done
