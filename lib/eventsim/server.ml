type job = { arrived : float; service_time : float; run : unit -> unit }

type t = {
  engine : Engine.t;
  k : int;
  waiting : job Queue.t;
  mutable busy : int;
  mutable completed : int;
  mutable total_wait : float;
  mutable max_queue : int;
}

let create engine ~servers =
  if servers < 1 then invalid_arg "Server.create: need at least one server";
  {
    engine;
    k = servers;
    waiting = Queue.create ();
    busy = 0;
    completed = 0;
    total_wait = 0.0;
    max_queue = 0;
  }

let busy t = t.busy
let queue_length t = Queue.length t.waiting
let completed t = t.completed
let total_queueing_delay t = t.total_wait
let max_queue_length t = t.max_queue

let rec start t job =
  t.busy <- t.busy + 1;
  let wait = Engine.now t.engine -. job.arrived in
  t.total_wait <- t.total_wait +. wait;
  Engine.schedule t.engine ~delay:job.service_time (fun () ->
      t.busy <- t.busy - 1;
      t.completed <- t.completed + 1;
      job.run ();
      (* the freed server picks up the next waiting job, if any *)
      if (not (Queue.is_empty t.waiting)) && t.busy < t.k then
        start t (Queue.pop t.waiting))

let submit t ~service_time run =
  if service_time < 0.0 then invalid_arg "Server.submit: negative service time";
  let job = { arrived = Engine.now t.engine; service_time; run } in
  if t.busy < t.k then start t job
  else begin
    Queue.push job t.waiting;
    if Queue.length t.waiting > t.max_queue then t.max_queue <- Queue.length t.waiting
  end

let observe t m ~prefix =
  let set_c name v =
    Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ name)) v
  in
  set_c "/completed" t.completed;
  set_c "/max_queue" t.max_queue;
  Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ "/total_wait_s")) t.total_wait
