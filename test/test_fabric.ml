(* Tests for the m-router switching fabric: Beneš permutation routing,
   the buddy column allocator, the CCN reduction trees, and the
   assembled PN-CCN-DN sandwich. *)

module Benes = Fabric.Benes
module Buddy = Fabric.Buddy
module Reduction = Fabric.Reduction
module Sandwich = Fabric.Sandwich
module Prng = Scmp_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------- Benes ---------------- *)

let test_benes_identity () =
  List.iter
    (fun n ->
      let cfg = Benes.identity n in
      Alcotest.check Alcotest.(array int) "identity realized"
        (Array.init n Fun.id) (Benes.eval cfg);
      checki "ports" n (Benes.ports cfg))
    [ 2; 4; 8; 16 ]

let test_benes_swap () =
  let cfg = Benes.route [| 1; 0 |] in
  Alcotest.check Alcotest.(array int) "2-port cross" [| 1; 0 |] (Benes.eval cfg);
  checki "one element" 1 (Benes.element_count cfg);
  checki "one crossed" 1 (Benes.crossed_count cfg)

let test_benes_depth_elements () =
  let cfg = Benes.identity 16 in
  checki "depth 2log2(16)-1 = 7" 7 (Benes.depth cfg);
  checki "elements 16/2 * 7 = 56" 56 (Benes.element_count cfg);
  checki "identity has no crossings" 0 (Benes.crossed_count cfg)

let test_benes_reversal () =
  let n = 8 in
  let p = Array.init n (fun i -> n - 1 - i) in
  Alcotest.check Alcotest.(array int) "reversal realized" p (Benes.eval (Benes.route p))

let test_benes_errors () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Benes.route: size must be a power of two >= 2") (fun () ->
      ignore (Benes.route [| 0; 2; 1 |]));
  Alcotest.check_raises "size one"
    (Invalid_argument "Benes.route: size must be a power of two >= 2") (fun () ->
      ignore (Benes.route [| 0 |]));
  Alcotest.check_raises "repeated target"
    (Invalid_argument "Benes.route: not a permutation") (fun () ->
      ignore (Benes.route [| 0; 0 |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Benes.route: not a permutation") (fun () ->
      ignore (Benes.route [| 0; 7 |]))

let prop_benes_routes_any_permutation =
  QCheck.Test.make ~name:"route/eval roundtrip for random permutations" ~count:150
    QCheck.(pair (int_range 1 7) small_int)
    (fun (bits, seed) ->
      let n = 1 lsl bits in
      let rng = Prng.create seed in
      let p = Array.init n Fun.id in
      Prng.shuffle rng p;
      Benes.eval (Benes.route p) = p)

(* ---------------- Buddy ---------------- *)

let test_buddy_pow2_ceil () =
  checki "1" 1 (Buddy.pow2_ceil 1);
  checki "2" 2 (Buddy.pow2_ceil 2);
  checki "3 -> 4" 4 (Buddy.pow2_ceil 3);
  checki "5 -> 8" 8 (Buddy.pow2_ceil 5);
  checki "exact" 16 (Buddy.pow2_ceil 16)

let test_buddy_alloc_aligned () =
  let b = Buddy.create 16 in
  checki "capacity" 16 (Buddy.capacity b);
  let blk k =
    match Buddy.alloc b k with Some x -> x | None -> Alcotest.fail "alloc failed"
  in
  let a1 = blk 3 in
  checki "rounded to 4" 4 a1.Buddy.size;
  checki "aligned" 0 (a1.Buddy.offset mod a1.Buddy.size);
  let a2 = blk 8 in
  checki "aligned 8" 0 (a2.Buddy.offset mod 8);
  checkb "disjoint" true
    (a1.Buddy.offset + a1.Buddy.size <= a2.Buddy.offset
    || a2.Buddy.offset + a2.Buddy.size <= a1.Buddy.offset);
  checki "free columns" 4 (Buddy.free_columns b)

let test_buddy_exhaustion_and_coalesce () =
  let b = Buddy.create 8 in
  let a1 = Option.get (Buddy.alloc b 4) in
  let a2 = Option.get (Buddy.alloc b 4) in
  checkb "full" true (Buddy.alloc b 1 = None);
  Buddy.free b a1;
  Buddy.free b a2;
  (* buddies coalesced back into the whole fabric *)
  let whole = Option.get (Buddy.alloc b 8) in
  checki "full block again" 8 whole.Buddy.size;
  checki "at origin" 0 whole.Buddy.offset

let test_buddy_errors () =
  let b = Buddy.create 8 in
  Alcotest.check_raises "non-pow2 capacity"
    (Invalid_argument "Buddy.create: size must be a power of two") (fun () ->
      ignore (Buddy.create 6));
  Alcotest.check_raises "zero request"
    (Invalid_argument "Buddy.alloc: non-positive request") (fun () ->
      ignore (Buddy.alloc b 0));
  Alcotest.check_raises "oversized request"
    (Invalid_argument "Buddy.alloc: request exceeds capacity") (fun () ->
      ignore (Buddy.alloc b 9));
  let a = Option.get (Buddy.alloc b 2) in
  Buddy.free b a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Buddy.free: block is not currently allocated") (fun () ->
      Buddy.free b a)

let prop_buddy_invariants =
  QCheck.Test.make ~name:"buddy blocks stay aligned and disjoint under churn"
    ~count:60 QCheck.small_int (fun seed ->
      let b = Buddy.create 64 in
      let rng = Prng.create seed in
      let live = ref [] in
      let ok = ref true in
      for _ = 1 to 200 do
        if Int64.logand (Prng.bits64 rng) 1L = 1L || !live = [] then begin
          match Buddy.alloc b (1 + Prng.int rng 16) with
          | Some blk -> live := blk :: !live
          | None -> ()
        end
        else begin
          match !live with
          | blk :: rest ->
            Buddy.free b blk;
            live := rest
          | [] -> ()
        end;
        (* invariants on the allocator's own view *)
        let blocks = Buddy.allocated b in
        List.iter
          (fun (x : Buddy.block) ->
            if x.offset mod x.size <> 0 then ok := false;
            if x.offset < 0 || x.offset + x.size > 64 then ok := false)
          blocks;
        let rec disjoint = function
          | [] -> true
          | (x : Buddy.block) :: rest ->
            List.for_all
              (fun (y : Buddy.block) ->
                x.offset + x.size <= y.offset || y.offset + y.size <= x.offset)
              rest
            && disjoint rest
        in
        if not (disjoint blocks) then ok := false
      done;
      !ok)

(* ---------------- Reduction ---------------- *)

let test_reduction_nodes () =
  let blk = { Buddy.offset = 4; size = 4 } in
  let root = Reduction.root_of blk in
  checki "root level" 2 root.Reduction.level;
  checki "root index" 1 root.Reduction.index;
  Alcotest.check Alcotest.(pair int int) "root columns" (4, 7) (Reduction.columns root);
  checki "merge depth" 2 (Reduction.merge_depth blk);
  let tree = Reduction.merge_tree blk in
  checki "4+2+1 nodes" 7 (List.length tree);
  (* root last *)
  (match List.rev tree with
  | r :: _ -> checkb "root is last" true (r = root)
  | [] -> Alcotest.fail "empty merge tree");
  checki "output column" 4 (Reduction.output_column blk)

let test_reduction_singleton () =
  let blk = { Buddy.offset = 5; size = 1 } in
  checki "leaf only" 1 (List.length (Reduction.merge_tree blk));
  checki "depth 0" 0 (Reduction.merge_depth blk)

let test_reduction_disjoint () =
  let a = { Buddy.offset = 0; size = 4 } in
  let b = { Buddy.offset = 4; size = 4 } in
  let c = { Buddy.offset = 2; size = 2 } in
  checkb "adjacent buddies disjoint" true (Reduction.disjoint a b);
  checkb "overlap not disjoint" false (Reduction.disjoint a c);
  checkb "reflexive overlap" false (Reduction.disjoint a a)

let prop_reduction_buddy_blocks_disjoint =
  QCheck.Test.make ~name:"buddy-allocated blocks have disjoint merge trees"
    ~count:60 QCheck.small_int (fun seed ->
      let b = Buddy.create 32 in
      let rng = Prng.create (seed + 999) in
      let blocks = ref [] in
      for _ = 1 to 8 do
        match Buddy.alloc b (1 + Prng.int rng 8) with
        | Some blk -> blocks := blk :: !blocks
        | None -> ()
      done;
      let rec pairwise = function
        | [] -> true
        | x :: rest -> List.for_all (Reduction.disjoint x) rest && pairwise rest
      in
      pairwise !blocks)

(* ---------------- Sandwich ---------------- *)

let test_sandwich_flow () =
  let f = Sandwich.create ~ports:16 in
  checki "ports" 16 (Sandwich.ports f);
  Alcotest.check
    (Alcotest.result Alcotest.unit Alcotest.string)
    "open" (Ok ())
    (Sandwich.open_group f ~gid:7 ~output:3);
  Alcotest.check
    (Alcotest.result Alcotest.unit Alcotest.string)
    "source" (Ok ())
    (Sandwich.add_source f ~gid:7 ~input:5);
  Alcotest.check Alcotest.(list int) "groups" [ 7 ] (Sandwich.groups f);
  Alcotest.check Alcotest.(list int) "sources" [ 5 ] (Sandwich.sources f 7);
  checki "output port" 3 (Sandwich.output_port f 7);
  (match Sandwich.self_check f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self check: %s" e);
  let plan = Sandwich.plan f in
  checkb "input mapped" true (List.mem_assoc 5 plan.Sandwich.column_of_input);
  Sandwich.close_group f 7;
  Alcotest.check Alcotest.(list int) "closed" [] (Sandwich.groups f)

let test_sandwich_errors () =
  let f = Sandwich.create ~ports:8 in
  Alcotest.check_raises "bad port count"
    (Invalid_argument "Sandwich.create: ports must be a power of two >= 2") (fun () ->
      ignore (Sandwich.create ~ports:6));
  checkb "unknown source errors" true
    (Result.is_error (Sandwich.add_source f ~gid:1 ~input:0));
  ignore (Sandwich.open_group f ~gid:1 ~output:0);
  checkb "dup group" true (Result.is_error (Sandwich.open_group f ~gid:1 ~output:1));
  checkb "output clash" true
    (Result.is_error (Sandwich.open_group f ~gid:2 ~output:0));
  checkb "input range" true
    (Result.is_error (Sandwich.add_source f ~gid:1 ~input:99));
  ignore (Sandwich.add_source f ~gid:1 ~input:4);
  ignore (Sandwich.open_group f ~gid:2 ~output:1);
  checkb "input in use by other group" true
    (Result.is_error (Sandwich.add_source f ~gid:2 ~input:4));
  checkb "input in use by same group" true
    (Result.is_error (Sandwich.add_source f ~gid:1 ~input:4))

let test_sandwich_growth_and_shrink () =
  let f = Sandwich.create ~ports:16 in
  ignore (Sandwich.open_group f ~gid:1 ~output:0);
  (* grow past successive powers of two *)
  List.iteri
    (fun i input ->
      match Sandwich.add_source f ~gid:1 ~input with
      | Ok () -> ()
      | Error e -> Alcotest.failf "add source %d: %s" i e)
    [ 1; 2; 3; 4; 5 ];
  (match Sandwich.self_check f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "after growth: %s" e);
  checki "five sources" 5 (List.length (Sandwich.sources f 1));
  List.iter (fun input -> Sandwich.remove_source f ~gid:1 ~input) [ 1; 2; 3; 4 ];
  (match Sandwich.self_check f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "after shrink: %s" e);
  checki "one source left" 1 (List.length (Sandwich.sources f 1))

let test_sandwich_isolation_many_groups () =
  let f = Sandwich.create ~ports:32 in
  for gid = 0 to 3 do
    (match Sandwich.open_group f ~gid ~output:(16 + gid) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "open %d: %s" gid e);
    for s = 0 to 2 do
      match Sandwich.add_source f ~gid ~input:((gid * 4) + s) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "source %d.%d: %s" gid s e
    done
  done;
  match Sandwich.self_check f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "isolation: %s" e

let prop_sandwich_churn_self_checks =
  QCheck.Test.make ~name:"sandwich self-check holds under random churn" ~count:25
    QCheck.small_int (fun seed ->
      let f = Sandwich.create ~ports:32 in
      let rng = Prng.create (seed * 7 + 1) in
      let ok = ref true in
      for _ = 1 to 120 do
        let gid = Prng.int rng 6 in
        (match Prng.int rng 4 with
        | 0 -> ignore (Sandwich.open_group f ~gid ~output:(16 + gid))
        | 1 -> ignore (Sandwich.add_source f ~gid ~input:(Prng.int rng 16))
        | 2 ->
          if List.mem gid (Sandwich.groups f) then begin
            match Sandwich.sources f gid with
            | input :: _ -> Sandwich.remove_source f ~gid ~input
            | [] -> ()
          end
        | _ -> if Prng.chance rng 0.2 then Sandwich.close_group f gid);
        if Sandwich.self_check f <> Ok () then ok := false
      done;
      !ok)

(* ---------------- Copynet ---------------- *)

module Copynet = Fabric.Copynet

let test_copynet_basics () =
  let c = Copynet.create 16 in
  checki "ports" 16 (Copynet.ports c);
  checki "stages" 4 (Copynet.stages c);
  Alcotest.check_raises "bad size"
    (Invalid_argument "Copynet.create: ports must be a power of two >= 2")
    (fun () -> ignore (Copynet.create 12));
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Copynet.route: interval out of range") (fun () ->
      ignore (Copynet.route c ~lo:5 ~hi:3))

let test_copynet_exact_intervals () =
  let c = Copynet.create 16 in
  List.iter
    (fun (lo, hi) ->
      let plan = Copynet.route c ~lo ~hi in
      let out = Copynet.eval c plan in
      Array.iteri
        (fun i got ->
          checkb
            (Printf.sprintf "[%d,%d] output %d" lo hi i)
            (i >= lo && i <= hi) got)
        out;
      checki "copies" (hi - lo + 1) (Copynet.copies plan))
    [ (0, 15); (0, 0); (15, 15); (3, 11); (7, 8); (4, 7); (8, 15) ]

let test_copynet_unicast_uses_linear_path () =
  let c = Copynet.create 64 in
  let plan = Copynet.route c ~lo:37 ~hi:37 in
  (* a single copy needs exactly one element per stage *)
  checki "stages elements" 6 (Copynet.elements_used plan)

let prop_copynet_interval_exact =
  QCheck.Test.make ~name:"copy network delivers exactly the tagged interval"
    ~count:200
    QCheck.(pair (int_range 0 5) (pair (int_bound 63) (int_bound 63)))
    (fun (bits, (a, b)) ->
      let n = 1 lsl (1 + bits) in
      let a = a mod n and b = b mod n in
      let lo = min a b and hi = max a b in
      let c = Copynet.create n in
      let out = Copynet.eval c (Copynet.route c ~lo ~hi) in
      let ok = ref true in
      Array.iteri (fun i got -> if got <> (i >= lo && i <= hi) then ok := false) out;
      !ok)

let prop_copynet_element_bound =
  QCheck.Test.make ~name:"fan-out tree size bounded by depth + 2*width" ~count:200
    QCheck.(pair (int_bound 31) (int_bound 31))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let c = Copynet.create 32 in
      let plan = Copynet.route c ~lo ~hi in
      let w = hi - lo + 1 in
      let d = Copynet.stages c in
      Copynet.elements_used plan >= d
      && Copynet.elements_used plan <= d + (2 * w))

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fabric"
    [
      ( "benes",
        [
          Alcotest.test_case "identity" `Quick test_benes_identity;
          Alcotest.test_case "swap" `Quick test_benes_swap;
          Alcotest.test_case "depth/elements" `Quick test_benes_depth_elements;
          Alcotest.test_case "reversal" `Quick test_benes_reversal;
          Alcotest.test_case "errors" `Quick test_benes_errors;
          qc prop_benes_routes_any_permutation;
        ] );
      ( "buddy",
        [
          Alcotest.test_case "pow2_ceil" `Quick test_buddy_pow2_ceil;
          Alcotest.test_case "aligned alloc" `Quick test_buddy_alloc_aligned;
          Alcotest.test_case "exhaustion/coalesce" `Quick test_buddy_exhaustion_and_coalesce;
          Alcotest.test_case "errors" `Quick test_buddy_errors;
          qc prop_buddy_invariants;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "nodes" `Quick test_reduction_nodes;
          Alcotest.test_case "singleton" `Quick test_reduction_singleton;
          Alcotest.test_case "disjoint" `Quick test_reduction_disjoint;
          qc prop_reduction_buddy_blocks_disjoint;
        ] );
      ( "copynet",
        [
          Alcotest.test_case "basics" `Quick test_copynet_basics;
          Alcotest.test_case "exact intervals" `Quick test_copynet_exact_intervals;
          Alcotest.test_case "unicast path" `Quick test_copynet_unicast_uses_linear_path;
          qc prop_copynet_interval_exact;
          qc prop_copynet_element_bound;
        ] );
      ( "sandwich",
        [
          Alcotest.test_case "flow" `Quick test_sandwich_flow;
          Alcotest.test_case "errors" `Quick test_sandwich_errors;
          Alcotest.test_case "growth/shrink" `Quick test_sandwich_growth_and_shrink;
          Alcotest.test_case "isolation" `Quick test_sandwich_isolation_many_groups;
          qc prop_sandwich_churn_self_checks;
        ] );
    ]
