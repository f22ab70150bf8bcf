(* Fixed pool of worker domains draining one shared queue.

   Concurrency is confined to this module (the domain-safety lint rule
   enforces that nothing outside lib/exec spawns domains or touches
   Atomic/Mutex): tasks handed to the pool must be self-contained —
   they may not share mutable state with each other or with the
   submitter until [map] returns. Determinism is then purely the
   caller's job of keeping results in submission order, which [map]
   does: results come back indexed, never in completion order. *)

exception Task_error of int * exn

type t = {
  jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t;  (* signalled when work arrives or on shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

let default_jobs () = Domain.recommended_domain_count ()

let worker t () =
  let rec next () =
    Mutex.lock t.mutex;
    let rec wait () =
      match Queue.take_opt t.queue with
      | Some job -> Some job
      | None ->
        if t.stopped then None
        else begin
          Condition.wait t.nonempty t.mutex;
          wait ()
        end
    in
    let job = wait () in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some job ->
      job ();
      next ()
  in
  next ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.with_pool: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopped = false;
      workers = [||];
    }
  in
  t.workers <- Array.init jobs (fun _ -> Domain.spawn (worker t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    t.stopped <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let map t items ~f =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let error = ref None in
    let remaining = ref n in
    let finished = Condition.create () in
    Mutex.lock t.mutex;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.map: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.add
        (fun () ->
          let outcome = try Ok (f i items.(i)) with e -> Error e in
          Mutex.lock t.mutex;
          (match outcome with
          | Ok v -> results.(i) <- Some v
          | Error e -> (
            (* Keep the lowest-indexed failure so the reported cell does
               not depend on completion order. *)
            match !error with
            | Some (j, _) when j < i -> ()
            | _ -> error := Some (i, e)));
          decr remaining;
          if !remaining = 0 then Condition.broadcast finished;
          Mutex.unlock t.mutex)
        t.queue
    done;
    Condition.broadcast t.nonempty;
    (* Every task runs to completion even when one fails, so the pool is
       drained — and reusable — when the exception propagates. *)
    while !remaining > 0 do
      Condition.wait finished t.mutex
    done;
    Mutex.unlock t.mutex;
    match !error with
    | Some (i, e) -> raise (Task_error (i, e))
    | None ->
      Array.to_list
        (Array.map (function Some v -> v | None -> assert false) results)
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
