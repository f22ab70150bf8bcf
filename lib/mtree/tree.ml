type node = Netgraph.Graph.node

type t = {
  graph : Netgraph.Graph.t;
  root : node;
  parent : int array;  (* -1 for root and off-tree nodes *)
  on : bool array;
  children : node list array;
  member : bool array;
  mutable count : int;
  mutable members_n : int;
  (* Change window (see [mark]). [w_epoch] is 0 until the first mark;
     the four arrays are allocated then, so trees nobody marks (KMB,
     SPT, one-shot builds) never pay for them. A node touched in the
     current window has [w_stamp.(x) = w_epoch] and its (on, parent) at
     the mark saved in [w_on]/[w_parent]; [w_touched.(0 .. w_len-1)]
     lists the touched nodes in touch order. *)
  mutable w_epoch : int;
  mutable w_stamp : int array;
  mutable w_on : bool array;
  mutable w_parent : int array;
  mutable w_touched : int array;
  mutable w_len : int;
}

let create graph ~root =
  let n = Netgraph.Graph.node_count graph in
  if root < 0 || root >= n then invalid_arg "Tree.create: root out of range";
  let t =
    {
      graph;
      root;
      parent = Array.make n (-1);
      on = Array.make n false;
      children = Array.make n [];
      member = Array.make n false;
      count = 1;
      members_n = 0;
      w_epoch = 0;
      w_stamp = [||];
      w_on = [||];
      w_parent = [||];
      w_touched = [||];
      w_len = 0;
    }
  in
  t.on.(root) <- true;
  t

let graph t = t.graph
let root t = t.root
let on_tree t x = t.on.(x)

(* Raw array reads — the DCDM added-cost walk asks this per path edge. *)
let on_tree_edge t a b =
  t.on.(a) && t.on.(b) && (t.parent.(a) = b || t.parent.(b) = a)

let size t = t.count

let require_on t x name =
  if not t.on.(x) then
    invalid_arg (Printf.sprintf "Tree.%s: node %d is not on the tree" name x)

let nodes t =
  let acc = ref [] in
  for x = Array.length t.on - 1 downto 0 do
    if t.on.(x) then acc := x :: !acc
  done;
  !acc

let parent t x =
  require_on t x "parent";
  if x = t.root then None else Some t.parent.(x)

let children t x =
  require_on t x "children";
  t.children.(x)

let edges t =
  List.filter_map
    (fun x -> if x = t.root then None else Some (t.parent.(x), x))
    (nodes t)

let is_member t x = t.member.(x)

let members t = List.filter (fun x -> t.member.(x)) (nodes t)

let member_count t = t.members_n

let set_member t x =
  require_on t x "set_member";
  if not t.member.(x) then begin
    t.member.(x) <- true;
    t.members_n <- t.members_n + 1
  end

let unset_member t x =
  if t.member.(x) then begin
    t.member.(x) <- false;
    t.members_n <- t.members_n - 1
  end

(* ---- change window ---- *)

let mark t =
  if t.w_epoch = 0 then begin
    let n = Array.length t.on in
    t.w_stamp <- Array.make n 0;
    t.w_on <- Array.make n false;
    t.w_parent <- Array.make n (-1);
    t.w_touched <- Array.make n 0
  end;
  t.w_epoch <- t.w_epoch + 1;
  t.w_len <- 0

(* Called by every mutator before it changes [x]'s (on, parent): the
   first touch per window saves the state at the mark. Each node enters
   [w_touched] at most once per window, so n slots suffice. *)
let touch t x =
  if t.w_epoch > 0 && t.w_stamp.(x) <> t.w_epoch then begin
    t.w_stamp.(x) <- t.w_epoch;
    t.w_on.(x) <- t.on.(x);
    t.w_parent.(x) <- t.parent.(x);
    t.w_touched.(t.w_len) <- x;
    t.w_len <- t.w_len + 1
  end

(* A non-root node's parent link is its tree edge, so the edge child [x]
   carried at the mark survives iff [x] is still on-tree under the same
   parent (and symmetrically for the edge it carries now). *)
let lost_at t x =
  x <> t.root && t.w_on.(x) && not (t.on.(x) && t.parent.(x) = t.w_parent.(x))

let gained_at t x =
  x <> t.root && t.on.(x) && not (t.w_on.(x) && t.w_parent.(x) = t.parent.(x))

let rec any_touched t f i =
  i < t.w_len && (f t t.w_touched.(i) || any_touched t f (i + 1))

let edges_lost t = any_touched t lost_at 0
let edges_gained t = any_touched t gained_at 0
let edges_changed t = edges_lost t || edges_gained t

let removed_since_mark t =
  let acc = ref [] in
  for i = 0 to t.w_len - 1 do
    let x = t.w_touched.(i) in
    if t.w_on.(x) && not t.on.(x) then acc := x :: !acc
  done;
  List.sort Int.compare !acc

let attach t ~parent:p x =
  require_on t p "attach";
  if t.on.(x) then invalid_arg "Tree.attach: node already on tree";
  if not (Netgraph.Graph.has_link t.graph p x) then
    invalid_arg "Tree.attach: no such graph link";
  touch t x;
  t.on.(x) <- true;
  t.parent.(x) <- p;
  t.children.(p) <- t.children.(p) @ [ x ];
  t.count <- t.count + 1

let is_ancestor t a b =
  require_on t a "is_ancestor";
  require_on t b "is_ancestor";
  let rec up x = x = a || (x <> t.root && up t.parent.(x)) in
  up b

let remove_child t p x =
  t.children.(p) <- List.filter (fun c -> c <> x) t.children.(p)

let detach_leaf t x =
  require_on t x "detach_leaf";
  if x = t.root then invalid_arg "Tree.detach_leaf: cannot detach root";
  if t.children.(x) <> [] then invalid_arg "Tree.detach_leaf: node has children";
  touch t x;
  remove_child t t.parent.(x) x;
  t.on.(x) <- false;
  t.parent.(x) <- -1;
  unset_member t x;
  t.count <- t.count - 1

let prune_upward t x =
  let rec loop x =
    if
      t.on.(x) && x <> t.root && t.children.(x) = [] && not t.member.(x)
    then begin
      let p = t.parent.(x) in
      detach_leaf t x;
      loop p
    end
  in
  if x >= 0 && x < Array.length t.on then loop x

(* Move [x] (with its whole subtree) under [new_parent]; caller must have
   ruled out cycles. The former upstream chain is then pruned as §III.D
   prescribes for loop elimination. *)
let reparent t x ~new_parent =
  touch t x;
  let old = t.parent.(x) in
  remove_child t old x;
  t.parent.(x) <- new_parent;
  t.children.(new_parent) <- t.children.(new_parent) @ [ x ];
  prune_upward t old

let graft_path t path =
  (match path with
  | [] -> invalid_arg "Tree.graft_path: empty path"
  | head :: _ -> require_on t head "graft_path");
  List.iter
    (fun (a, b) ->
      if not (Netgraph.Graph.has_link t.graph a b) then
        invalid_arg "Tree.graft_path: path edge is not a graph link")
    (Netgraph.Path.edges path);
  let rec walk attach_at = function
    | [] -> ()
    | b :: rest ->
      if not t.on.(b) then begin
        attach t ~parent:attach_at b;
        walk b rest
      end
      else if b = attach_at then walk attach_at rest
      else if is_ancestor t b attach_at then
        (* Re-parenting [b] under [attach_at] would close a cycle: the
           new path climbed back into its own ancestry. Use the existing
           tree connectivity instead and continue the graft from [b]. *)
        walk b rest
      else begin
        reparent t b ~new_parent:attach_at;
        walk b rest
      end
  in
  match path with
  | head :: rest -> walk head rest
  | [] -> ()

(* Preorder walk that keeps each running sum in [d] itself: a float
   passed as an argument (or captured by a closure) would be boxed once
   per node. Tree edges are graph links by construction, and the edge
   delay array holds the same stored floats [link_delay_opt] returns. *)
let delays_into t d =
  Array.fill d 0 (Array.length d) infinity;
  let edelay = Netgraph.Graph.edge_delays t.graph in
  let rec visit x = visit_children x t.children.(x)
  and visit_children x = function
    | [] -> ()
    | c :: rest ->
      d.(c) <- d.(x) +. edelay.(Netgraph.Graph.edge_id_ix t.graph x c);
      visit c;
      visit_children x rest
  in
  d.(t.root) <- 0.0;
  visit t.root

let delays t =
  let d = Array.make (Netgraph.Graph.node_count t.graph) infinity in
  delays_into t d;
  d

let depth t x =
  require_on t x "depth";
  let rec up x acc = if x = t.root then acc else up t.parent.(x) (acc + 1) in
  up x 0

let validate t =
  let n = Netgraph.Graph.node_count t.graph in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* Parent/children coherence and edge existence. *)
  for x = 0 to n - 1 do
    if t.on.(x) then begin
      if x <> t.root then begin
        let p = t.parent.(x) in
        if p < 0 || p >= n || not t.on.(p) then note "node %d has off-tree parent" x
        else begin
          if not (List.mem x t.children.(p)) then
            note "node %d missing from children of %d" x p;
          if not (Netgraph.Graph.has_link t.graph p x) then
            note "tree edge %d-%d is not a graph link" p x
        end
      end;
      List.iter
        (fun c ->
          if not (t.on.(c) && t.parent.(c) = x) then
            note "child %d of %d has inconsistent parent" c x)
        t.children.(x)
    end
    else begin
      if t.member.(x) then note "member %d is off-tree" x;
      if t.children.(x) <> [] then note "off-tree node %d has children" x;
      if t.parent.(x) <> -1 then note "off-tree node %d has a parent" x
    end
  done;
  (* Reachability of the root (also excludes cycles). *)
  let ok_count = ref 0 in
  let rec count x =
    incr ok_count;
    List.iter count t.children.(x)
  in
  count t.root;
  if !ok_count <> t.count then
    note "size mismatch: %d reachable from root, %d recorded" !ok_count t.count;
  let members_seen = Array.fold_left (fun k m -> if m then k + 1 else k) 0 t.member in
  if members_seen <> t.members_n then
    note "member count mismatch: %d marked, %d recorded" members_seen t.members_n;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))

