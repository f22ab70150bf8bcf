type node = int
type edge = int

type link = { u : node; v : node; delay : float; cost : float }

(* Frozen CSR snapshot. [off]/[nbr] is the classic compressed sparse
   row layout over 2m directed slots; [slot_eid] maps each slot to the
   dense undirected edge id (insertion order), and the slot-aligned
   weight arrays duplicate the per-edge weights so the Dijkstra inner
   loop reads neighbor, edge id and weight from contiguous arrays with
   no indirection. Per-node slot order is the order the node's
   incident links were added, so traversals relax edges in exactly the
   insertion order the old adjacency-list representation used. *)
type t = {
  n : int;
  m : int;
  off : int array;  (* n + 1 *)
  ends : int array;  (* n: off.(x + 1), the end of x's slot range *)
  nbr : int array;  (* 2m *)
  slot_eid : int array;  (* 2m *)
  slot_delay : float array;  (* 2m *)
  slot_cost : float array;  (* 2m *)
  eu : int array;  (* m, eu.(e) < ev.(e) *)
  ev : int array;
  edelay : float array;  (* m *)
  ecost : float array;  (* m *)
  (* Dense adjacency matrix of edge ids (-1 = not adjacent), built at
     freeze time for small graphs so the per-transmit edge lookup is
     one load instead of a CSR scan. Empty for large n, where the
     O(n^2) footprint would not pay for itself. *)
  eid_mat : int array;
  stamp : int;  (* see [next_stamp] *)
}

(* A graph's identity as plain data, for memo keys that must not hold
   the graph: the freezing domain's id in the high bits, a count of the
   graphs that domain froze in the low 32. Unique without a lock. *)
let frozen = Domain.DLS.new_key (fun () -> ref 0)

let next_stamp () =
  let count = Domain.DLS.get frozen in
  incr count;
  ((Domain.self () :> int) lsl 32) lor !count

module Builder = struct
  type t = {
    n : int;
    adj : node list array;  (* reverse order; duplicate detection only *)
    mutable links_rev : (node * node * float * float) list;
    deg : int array;
    mutable m : int;
    mutable frozen : bool;
  }

  let create n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative node count";
    {
      n;
      adj = Array.make n [];
      links_rev = [];
      deg = Array.make n 0;
      m = 0;
      frozen = false;
    }

  let node_count b = b.n
  let link_count b = b.m

  let check_node b x name =
    if x < 0 || x >= b.n then
      invalid_arg
        (Printf.sprintf "Graph.Builder.%s: node %d out of range [0,%d)" name x
           b.n)

  let has_link b a x =
    check_node b a "has_link";
    check_node b x "has_link";
    List.exists (fun w -> w = x) b.adj.(a)

  let add_link b a x ~delay ~cost =
    if b.frozen then
      invalid_arg "Graph.Builder.add_link: builder is already frozen";
    check_node b a "add_link";
    check_node b x "add_link";
    if a = x then invalid_arg "Graph.Builder.add_link: self-loop";
    if delay <= 0.0 || cost <= 0.0 then
      invalid_arg "Graph.Builder.add_link: delay and cost must be positive";
    if has_link b a x then invalid_arg "Graph.Builder.add_link: duplicate link";
    b.adj.(a) <- x :: b.adj.(a);
    b.adj.(x) <- a :: b.adj.(x);
    b.links_rev <- (a, x, delay, cost) :: b.links_rev;
    b.deg.(a) <- b.deg.(a) + 1;
    b.deg.(x) <- b.deg.(x) + 1;
    b.m <- b.m + 1

  (* Connected components of the partially built graph — the topology
     generators stitch components together mid-construction. Same
     contract as the frozen {!components}. *)
  let components b =
    let seen = Array.make b.n false in
    let comps = ref [] in
    for start = 0 to b.n - 1 do
      if not seen.(start) then begin
        let comp = ref [] in
        let queue = Queue.create () in
        Queue.add start queue;
        seen.(start) <- true;
        while not (Queue.is_empty queue) do
          let x = Queue.pop queue in
          comp := x :: !comp;
          List.iter
            (fun w ->
              if not seen.(w) then begin
                seen.(w) <- true;
                Queue.add w queue
              end)
            b.adj.(x)
        done;
        comps := List.sort Int.compare !comp :: !comps
      end
    done;
    List.rev !comps

  let freeze b =
    if b.frozen then invalid_arg "Graph.Builder.freeze: builder is already frozen";
    b.frozen <- true;
    let n = b.n and m = b.m in
    let off = Array.make (n + 1) 0 in
    for x = 0 to n - 1 do
      off.(x + 1) <- off.(x) + b.deg.(x)
    done;
    let slots = 2 * m in
    let nbr = Array.make slots 0 in
    let slot_eid = Array.make slots 0 in
    let slot_delay = Array.make slots 0.0 in
    let slot_cost = Array.make slots 0.0 in
    let eu = Array.make m 0 in
    let ev = Array.make m 0 in
    let edelay = Array.make m 0.0 in
    let ecost = Array.make m 0.0 in
    let pos = Array.copy off in
    let fill x y e delay cost =
      let s = pos.(x) in
      pos.(x) <- s + 1;
      nbr.(s) <- y;
      slot_eid.(s) <- e;
      slot_delay.(s) <- delay;
      slot_cost.(s) <- cost
    in
    List.iteri
      (fun e (a, x, delay, cost) ->
        eu.(e) <- min a x;
        ev.(e) <- max a x;
        edelay.(e) <- delay;
        ecost.(e) <- cost;
        fill a x e delay cost;
        fill x a e delay cost)
      (List.rev b.links_rev);
    let eid_mat =
      if n > 256 then [||]
      else begin
        let mat = Array.make (n * n) (-1) in
        for e = 0 to m - 1 do
          mat.((eu.(e) * n) + ev.(e)) <- e;
          mat.((ev.(e) * n) + eu.(e)) <- e
        done;
        mat
      end
    in
    {
      n;
      m;
      off;
      ends = Array.sub off 1 n;
      nbr;
      slot_eid;
      slot_delay;
      slot_cost;
      eu;
      ev;
      edelay;
      ecost;
      eid_mat;
      stamp = next_stamp ();
    }
end

let of_links ~n links =
  let b = Builder.create n in
  List.iter (fun (u, v, delay, cost) -> Builder.add_link b u v ~delay ~cost) links;
  Builder.freeze b

let node_count t = t.n
let stamp t = t.stamp
let link_count t = t.m
let edge_count t = t.m

let check_node t x name =
  if x < 0 || x >= t.n then
    invalid_arg (Printf.sprintf "Graph.%s: node %d out of range [0,%d)" name x t.n)

let check_edge t e name =
  if e < 0 || e >= t.m then
    invalid_arg (Printf.sprintf "Graph.%s: edge %d out of range [0,%d)" name e t.m)

(* ---------------- edge-id views ---------------- *)

let edge_u t e =
  check_edge t e "edge_u";
  t.eu.(e)

let edge_v t e =
  check_edge t e "edge_v";
  t.ev.(e)

let edge_delay t e =
  check_edge t e "edge_delay";
  t.edelay.(e)

let edge_cost t e =
  check_edge t e "edge_cost";
  t.ecost.(e)

let edge_link t e =
  check_edge t e "edge_link";
  { u = t.eu.(e); v = t.ev.(e); delay = t.edelay.(e); cost = t.ecost.(e) }

(* First slot in [s, stop) whose neighbor is [b], or -1. Top-level
   rather than a local closure over [t], [b] and [stop]: on graphs too
   large for the dense id matrix every lookup runs this scan, and the
   closure would be allocated per call. *)
let rec find_slot_from t b stop s =
  if s = stop then -1 else if t.nbr.(s) = b then s else find_slot_from t b stop (s + 1)

let edge_id_ix t a b =
  check_node t a "edge_id_ix";
  check_node t b "edge_id_ix";
  if Array.length t.eid_mat > 0 then Array.unsafe_get t.eid_mat ((a * t.n) + b)
  else
    match find_slot_from t b t.off.(a + 1) t.off.(a) with
    | -1 -> -1
    | s -> t.slot_eid.(s)

let edge_id_opt t a b =
  match edge_id_ix t a b with -1 -> None | e -> Some e

let has_link t a b =
  check_node t a "has_link";
  check_node t b "has_link";
  edge_id_ix t a b >= 0

(* Dedicated scalar scans (no record allocation) behind the
   option-returning entry points; Path sums and the tree walks sit on
   these. *)

let find_slot t a b = find_slot_from t b t.off.(a + 1) t.off.(a)

let link_delay_opt t a b =
  check_node t a "link_delay_opt";
  check_node t b "link_delay_opt";
  let s = find_slot t a b in
  if s < 0 then None else Some t.slot_delay.(s)

let link_cost_opt t a b =
  check_node t a "link_cost_opt";
  check_node t b "link_cost_opt";
  let s = find_slot t a b in
  if s < 0 then None else Some t.slot_cost.(s)

(* ---------------- neighborhood ---------------- *)

let neighbors t x =
  check_node t x "neighbors";
  let acc = ref [] in
  for s = t.off.(x + 1) - 1 downto t.off.(x) do
    acc := t.nbr.(s) :: !acc
  done;
  !acc

let degree t x =
  check_node t x "degree";
  t.off.(x + 1) - t.off.(x)

let iter_incident t x f =
  check_node t x "iter_incident";
  for s = t.off.(x) to t.off.(x + 1) - 1 do
    f t.slot_eid.(s) t.nbr.(s)
  done

(* ---------------- whole-graph views ---------------- *)

let links t =
  let acc = ref [] in
  for e = t.m - 1 downto 0 do
    acc := edge_link t e :: !acc
  done;
  !acc

let iter_links t f =
  for e = 0 to t.m - 1 do
    f (edge_link t e)
  done

let mean_degree t =
  if t.n = 0 then 0.0 else 2.0 *. float_of_int t.m /. float_of_int t.n

let components t =
  let seen = Array.make t.n false in
  let comps = ref [] in
  for start = 0 to t.n - 1 do
    if not seen.(start) then begin
      let comp = ref [] in
      let queue = Queue.create () in
      Queue.add start queue;
      seen.(start) <- true;
      while not (Queue.is_empty queue) do
        let x = Queue.pop queue in
        comp := x :: !comp;
        for s = t.off.(x) to t.off.(x + 1) - 1 do
          let w = t.nbr.(s) in
          if not seen.(w) then begin
            seen.(w) <- true;
            Queue.add w queue
          end
        done
      done;
      comps := List.sort Int.compare !comp :: !comps
    end
  done;
  List.rev !comps

let is_connected t = t.n <= 1 || List.length (components t) = 1

(* ---------------- derived graphs ---------------- *)

let map_links t ~f =
  let b = Builder.create t.n in
  iter_links t (fun l ->
      let delay, cost = f l in
      Builder.add_link b l.u l.v ~delay ~cost);
  Builder.freeze b

let filter_links t ~f =
  let b = Builder.create t.n in
  iter_links t (fun l -> if f l then Builder.add_link b l.u l.v ~delay:l.delay ~cost:l.cost);
  Builder.freeze b

(* ---------------- CSR internals ---------------- *)

let csr_offsets t = t.off
let csr_ends t = t.ends
let csr_neighbors t = t.nbr
let csr_edge_ids t = t.slot_eid
let csr_delays t = t.slot_delay
let csr_costs t = t.slot_cost
let edge_delays t = t.edelay
let edge_costs t = t.ecost
