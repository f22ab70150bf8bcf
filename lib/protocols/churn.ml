module Intset = Set.Make (Int)

type t = {
  engine : Eventsim.Engine.t;
  rng : Scmp_util.Prng.t;
  candidates : Message.node array;
  join : Message.node -> unit;
  leave : Message.node -> unit;
  mean_interarrival : float;
  mean_holding : float;
  horizon : float;
  mutable members : Intset.t;
  mutable joins : int;
  mutable leaves : int;
}

let exponential rng mean =
  let u = Scmp_util.Prng.float rng 1.0 in
  -.mean *. log (1.0 -. u)

let depart t x () =
  if Intset.mem x t.members then begin
    t.members <- Intset.remove x t.members;
    t.leaves <- t.leaves + 1;
    t.leave x
  end

(* Counts the [k] candidates outside, draws [Prng.int rng k] (the draw
   [Prng.pick] makes) and walks to that outside candidate: the member
   [Prng.pick] would draw from the outside candidates listed in order,
   found without listing them. *)
let pick_outside rng candidates ~inside =
  let k =
    Array.fold_left (fun k x -> if inside x then k else k + 1) 0 candidates
  in
  if k = 0 then None
  else begin
    let rec nth i j =
      let x = candidates.(j) in
      if inside x then nth i (j + 1) else if i = 0 then x else nth (i - 1) (j + 1)
    in
    Some (nth (Scmp_util.Prng.int rng k) 0)
  end

let arrival t () =
  match pick_outside t.rng t.candidates ~inside:(fun x -> Intset.mem x t.members) with
  | None -> () (* pool exhausted: skip this arrival *)
  | Some x ->
    t.members <- Intset.add x t.members;
    t.joins <- t.joins + 1;
    t.join x;
    Eventsim.Engine.schedule t.engine
      ~delay:(exponential t.rng t.mean_holding)
      (depart t x)

let rec schedule_arrivals t =
  let next =
    Eventsim.Engine.now t.engine +. exponential t.rng t.mean_interarrival
  in
  if next <= t.horizon then
    Eventsim.Engine.schedule_at t.engine ~time:next (fun () ->
        arrival t ();
        schedule_arrivals t)

(* Run time grows with the arrival count, which nothing else bounds: a
   million arrivals take about a second. A mean far below the clock's
   resolution would not even advance time. *)
let max_arrivals = 1e6

let too_dense ~mean_interarrival ~span =
  let n = span /. mean_interarrival in
  if n > max_arrivals then Some n else None

let start engine ~rng ~candidates ~join ~leave ~mean_interarrival ~mean_holding
    ~horizon =
  if mean_interarrival <= 0.0 || mean_holding <= 0.0 then
    invalid_arg "Churn.start: means must be positive";
  if candidates = [] then invalid_arg "Churn.start: empty candidate pool";
  let span = horizon -. Eventsim.Engine.now engine in
  Option.iter
    (fun n ->
      invalid_arg
        (Printf.sprintf
           "Churn.start: a mean inter-arrival of %g s expects %g arrivals \
            over %g s, more than %g"
           mean_interarrival n span max_arrivals))
    (too_dense ~mean_interarrival ~span);
  let t =
    {
      engine;
      rng;
      candidates = Array.of_list candidates;
      join;
      leave;
      mean_interarrival;
      mean_holding;
      horizon;
      members = Intset.empty;
      joins = 0;
      leaves = 0;
    }
  in
  schedule_arrivals t;
  t

let joins t = t.joins
let leaves t = t.leaves
let current_members t = Intset.elements t.members
