module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  (* The timer chain holds the entry itself: it is live while the table
     still maps its key to an entry of the same serial (the window's
     send count at its send), so an ack, a cancellation or a newer send
     under the same key all stop it the same way. *)
  type 'p entry = {
    key : K.t;
    payload : 'p;
    serial : int;
    mutable attempts : int;
  }

  type 'p t = {
    engine : Eventsim.Engine.t;
    rto : float;
    max_attempts : int;
    rtt : K.t -> 'p -> float;
    resend : K.t -> 'p -> unit;
    settled : K.t -> 'p -> bool;
    give_up : K.t -> 'p -> unit;
    live : 'p entry H.t;
    mutable sent : int;
    mutable retransmissions : int;
    mutable giveups : int;
  }

  let create engine ~rto ~max_attempts ~rtt ~resend ~settled ~give_up =
    if not (rto > 0.0) then invalid_arg "Reliable.create: rto must be positive";
    if max_attempts < 1 then
      invalid_arg "Reliable.create: max_attempts must be at least 1";
    {
      engine; rto; max_attempts; rtt; resend; settled; give_up;
      live = H.create 32; sent = 0; retransmissions = 0; giveups = 0;
    }

  let current w e =
    match H.find_opt w.live e.key with
    | Some cur -> cur.serial = e.serial
    | None -> false

  let abandon w e =
    H.remove w.live e.key;
    w.giveups <- w.giveups + 1;
    w.give_up e.key e.payload

  let rec arm w e =
    let base = w.rto +. w.rtt e.key e.payload in
    Eventsim.Engine.schedule w.engine
      ~delay:(base *. (2.0 ** float_of_int (e.attempts - 1)))
      (fun () -> fire w e)

  and fire w e =
    if current w e then
      if w.settled e.key e.payload then H.remove w.live e.key
      else if e.attempts >= w.max_attempts then abandon w e
      else begin
        e.attempts <- e.attempts + 1;
        w.retransmissions <- w.retransmissions + 1;
        w.resend e.key e.payload;
        arm w e
      end

  let send w key payload =
    w.sent <- w.sent + 1;
    let e = { key; payload; serial = w.sent; attempts = 1 } in
    H.replace w.live key e;
    w.resend key payload;
    arm w e

  let find w key =
    match H.find_opt w.live key with Some e -> Some e.payload | None -> None

  let ack w key = H.remove w.live key

  let matching w pred =
    H.fold (fun k e acc -> if pred k e.payload then e :: acc else acc) w.live []
    |> List.sort (fun a b -> Int.compare a.serial b.serial)

  let cancel_if w pred = List.iter (fun e -> H.remove w.live e.key) (matching w pred)
  let abort_if w pred = List.iter (abandon w) (matching w pred)
  let retransmissions w = w.retransmissions
  let giveups w = w.giveups
end
