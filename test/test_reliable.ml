(* Protocols.Reliable against the three retry loops it replaced.

   Before the shared window existed, SCMP's reliable frames, SCMP's DR
   requests and HPIM-DM's interest syncs each ran their own timer
   chain. Copies of those three loops are kept here as oracles, cut
   down to their transport logic: the protocol around them is replaced
   by a log of every (re)send and a few knobs the operations turn
   (GRAFT observability, the DR's current view and its distance).

   A random program of sends, acks (current and stale), supersedes,
   settles, re-targets, cancellations, aborts and time advances runs
   through an oracle and through the matching Reliable window on two
   fresh engines. Both must log the same resends at the same instants
   toward the same targets, count the same retransmissions and
   give-ups, abandon the same dead letters and execute the same number
   of engine events. *)

module Engine = Eventsim.Engine

module R = Protocols.Reliable.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let rto = 0.05
let keys = 4

(* What a run leaves behind. [log] holds (instant, key, target)
   triples, newest first; [dead] the keys of the dead-lettered frames,
   newest first. *)
type outcome = {
  log : (float * int * int) list;
  retx : int;
  giveups : int;
  dead : int list;
  events : int;
}

(* Operation codes over (code, arg) pairs. Code 6 advances time by
   [arg] hundredths of a second; the others are interpreted per
   scenario (a scenario ignores the codes it has no use for). *)
let drive e ops f =
  List.iter
    (fun (code, arg) ->
      if code = 6 then Engine.run ~until:(Engine.now e +. (float_of_int arg *. 0.01)) e
      else f code arg)
    ops;
  Engine.run e

(* ---------------- SCMP reliable frames ---------------- *)

(* The frame loop as it stood in scmp_proto.ml: tokens allocated
   network-wide, a routed frame that gives up becomes a dead letter,
   [cancel] is distribute_tree's INVALIDATE cancellation and [abort]
   is abort_dead_rel, both in ascending token order. *)
module Frames_oracle = struct
  type rel = { dst : int; routed : bool; mutable attempts : int }

  type t = {
    e : Engine.t;
    max_attempts : int;
    pending : (int, rel) Hashtbl.t;
    mutable tokens : int;
    mutable retx : int;
    mutable giveups : int;
    mutable dead : int list;
    mutable log : (float * int * int) list;
  }

  let backoff attempts = rto *. (2.0 ** float_of_int (attempts - 1))
  let resend t token r = t.log <- (Engine.now t.e, token, r.dst) :: t.log

  let rec arm_rel t token r =
    Engine.schedule t.e ~delay:(backoff r.attempts) (fun () ->
        if Hashtbl.mem t.pending token then begin
          if r.attempts >= t.max_attempts then begin
            Hashtbl.remove t.pending token;
            t.giveups <- t.giveups + 1;
            if r.routed then t.dead <- token :: t.dead
          end
          else begin
            r.attempts <- r.attempts + 1;
            t.retx <- t.retx + 1;
            resend t token r;
            arm_rel t token r
          end
        end)

  let send t dst =
    t.tokens <- t.tokens + 1;
    let token = t.tokens in
    let r = { dst; routed = dst mod 2 = 0; attempts = 1 } in
    Hashtbl.replace t.pending token r;
    resend t token r;
    arm_rel t token r

  let ack t token = Hashtbl.remove t.pending token

  let sorted_tokens t pred =
    Hashtbl.fold (fun token r acc -> if pred r then token :: acc else acc) t.pending []
    |> List.sort Int.compare

  let cancel t n =
    List.iter (Hashtbl.remove t.pending)
      (sorted_tokens t (fun r -> r.routed && r.dst mod 3 = n))

  let abort t n =
    List.iter
      (fun token ->
        (match Hashtbl.find_opt t.pending token with
        | Some { routed = true; _ } -> t.dead <- token :: t.dead
        | Some _ | None -> ());
        Hashtbl.remove t.pending token;
        t.giveups <- t.giveups + 1)
      (sorted_tokens t (fun r -> r.dst mod 3 = n))

  let run max_attempts ops =
    let e = Engine.create () in
    let t =
      { e; max_attempts; pending = Hashtbl.create 8; tokens = 0; retx = 0;
        giveups = 0; dead = []; log = [] }
    in
    drive e ops (fun code arg ->
        match code with
        | 0 -> send t (arg mod keys)
        | 1 -> ack t (arg mod (t.tokens + 1))
        | 4 -> cancel t (arg mod 3)
        | 5 -> abort t (arg mod 3)
        | _ -> ());
    { log = t.log; retx = t.retx; giveups = t.giveups; dead = t.dead;
      events = Engine.events_executed e }
end

let frames_reliable max_attempts ops =
  let e = Engine.create () in
  let log = ref [] and dead = ref [] and tokens = ref 0 in
  let w =
    R.create e ~rto ~max_attempts
      ~rtt:(fun _ _ -> 0.0)
      ~resend:(fun token (dst, _) -> log := (Engine.now e, token, dst) :: !log)
      ~settled:(fun _ _ -> false)
      ~give_up:(fun token (_, routed) -> if routed then dead := token :: !dead)
  in
  drive e ops (fun code arg ->
      match code with
      | 0 ->
        incr tokens;
        let dst = arg mod keys in
        R.send w !tokens (dst, dst mod 2 = 0)
      | 1 -> R.ack w (arg mod (!tokens + 1))
      | 4 ->
        let n = arg mod 3 in
        R.cancel_if w (fun _ (dst, routed) -> routed && dst mod 3 = n)
      | 5 ->
        let n = arg mod 3 in
        R.abort_if w (fun _ (dst, _) -> dst mod 3 = n)
      | _ -> ());
  { log = !log; retx = R.retransmissions w; giveups = R.giveups w; dead = !dead;
    events = Engine.events_executed e }

(* ---------------- SCMP DR requests ---------------- *)

(* The knobs the request loop reads from the protocol: the DR's
   current view (resend target), its distance to it (the RTT-scaled
   base timeout; infinite when unreachable) and, for GRAFT keys (odd
   here), whether the repair became observable. Shared by the oracle
   and the window, which only read them. *)
type request_env = {
  view : int array;
  dist : float array;
  observable : bool array;
  last_seq : int array;
  mutable ctl_seq : int;
}

let request_env () =
  { view = Array.make keys 0; dist = Array.make keys 0.002;
    observable = Array.make keys false; last_seq = Array.make keys 0; ctl_seq = 0 }

(* Operations on the environment, applied identically on both sides;
   they return the seq a Send/Ack should use. *)
let env_op env code arg =
  let k = arg mod keys in
  match code with
  | 0 ->
    env.ctl_seq <- env.ctl_seq + 1;
    env.last_seq.(k) <- env.ctl_seq;
    env.ctl_seq
  | 1 -> env.last_seq.(k) - (arg / keys mod 2) (* current or stale *)
  | 2 ->
    env.observable.(k) <- true;
    0
  | 3 ->
    env.view.(k) <- arg;
    env.dist.(k) <- (if arg mod 7 = 0 then infinity else float_of_int arg *. 0.003);
    0
  | _ -> 0

(* The request loop as it stood in scmp_proto.ml ([arm_request],
   [submit_request], the req-ack handler). *)
module Requests_oracle = struct
  type request = {
    key : int;
    seq : int;
    mutable attempts : int;
    mutable acked : bool;
    mutable settled : bool;
  }

  type t = {
    e : Engine.t;
    env : request_env;
    max_attempts : int;
    requests : (int, request) Hashtbl.t;
    mutable retx : int;
    mutable giveups : int;
    mutable log : (float * int * int) list;
  }

  let request_rto t rq =
    let d = t.env.dist.(rq.key) in
    if Float.is_finite d then Float.max rto ((2.0 *. d) +. rto) else rto

  let completed t rq = rq.acked || (rq.key mod 2 = 1 && t.env.observable.(rq.key))
  let resend t rq = t.log <- (Engine.now t.e, rq.key, t.env.view.(rq.key)) :: t.log

  let rec arm t rq =
    Engine.schedule t.e
      ~delay:(request_rto t rq *. (2.0 ** float_of_int (rq.attempts - 1)))
      (fun () ->
        if not rq.settled then begin
          if completed t rq then rq.settled <- true
          else if rq.attempts >= t.max_attempts then begin
            rq.settled <- true;
            t.giveups <- t.giveups + 1
          end
          else begin
            rq.attempts <- rq.attempts + 1;
            t.retx <- t.retx + 1;
            resend t rq;
            arm t rq
          end
        end)

  let submit t key seq =
    let rq = { key; seq; attempts = 1; acked = false; settled = false } in
    (match Hashtbl.find_opt t.requests key with
    | Some old -> old.settled <- true
    | None -> ());
    Hashtbl.replace t.requests key rq;
    resend t rq;
    arm t rq

  let ack t key seq =
    match Hashtbl.find_opt t.requests key with
    | Some rq when rq.seq = seq -> rq.acked <- true
    | Some _ | None -> ()

  let run max_attempts ops =
    let e = Engine.create () in
    let t =
      { e; env = request_env (); max_attempts; requests = Hashtbl.create 8;
        retx = 0; giveups = 0; log = [] }
    in
    drive e ops (fun code arg ->
        let seq = env_op t.env code arg in
        match code with
        | 0 -> submit t (arg mod keys) seq
        | 1 -> ack t (arg mod keys) seq
        | _ -> ());
    { log = t.log; retx = t.retx; giveups = t.giveups; dead = [];
      events = Engine.events_executed e }
end

let requests_reliable max_attempts ops =
  let e = Engine.create () in
  let env = request_env () in
  let log = ref [] in
  let w =
    R.create e ~rto ~max_attempts
      ~rtt:(fun k _ ->
        let d = env.dist.(k) in
        if Float.is_finite d then 2.0 *. d else 0.0)
      ~resend:(fun k _ -> log := (Engine.now e, k, env.view.(k)) :: !log)
      ~settled:(fun k _ -> k mod 2 = 1 && env.observable.(k))
      ~give_up:(fun _ _ -> ())
  in
  drive e ops (fun code arg ->
      let seq = env_op env code arg in
      let k = arg mod keys in
      match code with
      | 0 -> R.send w k seq
      | 1 -> (
        match R.find w k with Some s when s = seq -> R.ack w k | Some _ | None -> ())
      | _ -> ());
  { log = !log; retx = R.retransmissions w; giveups = R.giveups w; dead = [];
    events = Engine.events_executed e }

(* ---------------- HPIM-DM interest syncs ---------------- *)

(* The sync loop as it stood in hpim_dm.ml ([arm_timer], [send_sync]'s
   send, [handle_ack]): attempts counted from 0, the delay doubled in
   place, a timer live while the pending record carries its seq. *)
module Syncs_oracle = struct
  type unacked = { seq : int; attempts : int }

  type t = {
    e : Engine.t;
    max_attempts : int;
    pending : (int, unacked) Hashtbl.t;
    mutable retx : int;
    mutable giveups : int;
    mutable log : (float * int * int) list;
  }

  let rec arm_timer t key seq ~delay =
    Engine.schedule t.e ~delay (fun () ->
        match Hashtbl.find_opt t.pending key with
        | Some p when p.seq = seq ->
          if p.attempts + 1 >= t.max_attempts then begin
            Hashtbl.remove t.pending key;
            t.giveups <- t.giveups + 1
          end
          else begin
            Hashtbl.replace t.pending key { p with attempts = p.attempts + 1 };
            t.retx <- t.retx + 1;
            t.log <- (Engine.now t.e, key, seq) :: t.log;
            arm_timer t key seq ~delay:(delay *. 2.)
          end
        | Some _ | None -> ())

  let send t key seq =
    Hashtbl.replace t.pending key { seq; attempts = 0 };
    t.log <- (Engine.now t.e, key, seq) :: t.log;
    arm_timer t key seq ~delay:rto

  let ack t key seq =
    match Hashtbl.find_opt t.pending key with
    | Some p when p.seq <= seq -> Hashtbl.remove t.pending key
    | Some _ | None -> ()

  let run max_attempts ops =
    let e = Engine.create () in
    let t = { e; max_attempts; pending = Hashtbl.create 8; retx = 0; giveups = 0; log = [] } in
    let env = request_env () in
    drive e ops (fun code arg ->
        let seq = env_op env code arg in
        match code with
        | 0 -> send t (arg mod keys) seq
        | 1 -> ack t (arg mod keys) seq
        | _ -> ());
    { log = t.log; retx = t.retx; giveups = t.giveups; dead = [];
      events = Engine.events_executed e }
end

let syncs_reliable max_attempts ops =
  let e = Engine.create () in
  let log = ref [] in
  let w =
    R.create e ~rto ~max_attempts
      ~rtt:(fun _ _ -> 0.0)
      ~resend:(fun k (seq, _) -> log := (Engine.now e, k, seq) :: !log)
      ~settled:(fun _ _ -> false)
      ~give_up:(fun _ _ -> ())
  in
  let env = request_env () in
  drive e ops (fun code arg ->
      let seq = env_op env code arg in
      let k = arg mod keys in
      match code with
      | 0 -> R.send w k (seq, arg mod 2 = 0)
      | 1 -> (
        match R.find w k with
        | Some (s, _) when s = seq -> R.ack w k
        | Some _ | None -> ())
      | _ -> ());
  { log = !log; retx = R.retransmissions w; giveups = R.giveups w; dead = [];
    events = Engine.events_executed e }

(* ---------------- properties ---------------- *)

let program =
  QCheck.(pair (int_range 1 6) (list_of_size Gen.(0 -- 60) (pair (int_bound 6) (int_bound 40))))

let show o =
  Printf.sprintf "retx=%d giveups=%d events=%d dead=[%s] log=[%s]" o.retx o.giveups
    o.events
    (String.concat ";" (List.map string_of_int (List.rev o.dead)))
    (String.concat "; "
       (List.rev_map (fun (at, k, x) -> Printf.sprintf "%g:%d->%d" at k x) o.log))

let same oracle reliable (max_attempts, ops) =
  let want = oracle max_attempts ops and got = reliable max_attempts ops in
  (* Float instants compared exactly: the window must reproduce the
     old backoff arithmetic bit for bit. *)
  want = got || QCheck.Test.fail_reportf "oracle:   %s\nreliable: %s" (show want) (show got)

let prop name oracle reliable =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:500 program (same oracle reliable))

(* A give-up sample the random programs must be able to reach at all:
   one frame, never acked, retransmitted max_attempts - 1 times. *)
let test_unacked_frame_gives_up () =
  let o = frames_reliable 4 [ (0, 2) ] in
  Alcotest.(check int) "retransmissions" 3 o.retx;
  Alcotest.(check int) "give-ups" 1 o.giveups;
  Alcotest.(check (list int)) "routed frame dead-lettered" [ 1 ] o.dead;
  Alcotest.(check (list (float 1e-12)))
    "instants: 0, then rto x 1, 2, 4"
    [ 0.0; 0.05; 0.15; 0.35 ]
    (List.rev_map (fun (at, _, _) -> at) o.log)

let test_create_validates () =
  let e = Engine.create () in
  let mk ~rto ~max_attempts () =
    ignore
      (R.create e ~rto ~max_attempts
         ~rtt:(fun _ () -> 0.0)
         ~resend:(fun _ () -> ())
         ~settled:(fun _ () -> false)
         ~give_up:(fun _ () -> ()))
  in
  Alcotest.check_raises "rto = 0"
    (Invalid_argument "Reliable.create: rto must be positive")
    (mk ~rto:0.0 ~max_attempts:3);
  Alcotest.check_raises "max_attempts = 0"
    (Invalid_argument "Reliable.create: max_attempts must be at least 1")
    (mk ~rto:0.1 ~max_attempts:0);
  mk ~rto:0.1 ~max_attempts:1 ()

let () =
  Alcotest.run "reliable"
    [
      ( "differential",
        [
          prop "scmp frames match the old frame loop" Frames_oracle.run frames_reliable;
          prop "scmp requests match the old request loop" Requests_oracle.run
            requests_reliable;
          prop "hpim-dm syncs match the old sync loop" Syncs_oracle.run syncs_reliable;
        ] );
      ( "window",
        [
          Alcotest.test_case "unacked frame gives up" `Quick test_unacked_frame_gives_up;
          Alcotest.test_case "create validates" `Quick test_create_validates;
        ] );
    ]
