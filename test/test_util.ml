(* Unit + property tests for the scmp_util library: PRNG, heap,
   statistics, union-find, text tables. *)

module Prng = Scmp_util.Prng
module Heap = Scmp_util.Heap
module Stats = Scmp_util.Stats
module Unionfind = Scmp_util.Unionfind
module Texttab = Scmp_util.Texttab
module Weak_memo = Scmp_util.Weak_memo

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ---------------- Prng ---------------- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  checkb "different seeds diverge" true !differs

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.bits64 a) (Prng.bits64 b);
  (* advancing one does not move the other *)
  ignore (Prng.bits64 a);
  ignore (Prng.bits64 a);
  let va = Prng.bits64 a and vb = Prng.bits64 b in
  checkb "streams are independent after copy" true (va <> vb)

let test_prng_split () =
  let a = Prng.create 3 in
  let child = Prng.split a in
  let differs = ref false in
  for _ = 1 to 20 do
    if Prng.bits64 a <> Prng.bits64 child then differs := true
  done;
  checkb "split stream differs from parent" true !differs

let test_prng_int_bounds () =
  let t = Prng.create 5 in
  for bound = 1 to 50 do
    for _ = 1 to 50 do
      let v = Prng.int t bound in
      checkb "0 <= v < bound" true (v >= 0 && v < bound)
    done
  done

let test_prng_int_invalid () =
  let t = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_float_bounds () =
  let t = Prng.create 13 in
  for _ = 1 to 500 do
    let v = Prng.float t 10.0 in
    checkb "0 <= v < 10" true (v >= 0.0 && v < 10.0)
  done

let test_prng_chance_extremes () =
  let t = Prng.create 17 in
  checkb "p=0 never" false (Prng.chance t 0.0);
  checkb "p=1 always" true (Prng.chance t 1.0);
  checkb "negative p" false (Prng.chance t (-3.0));
  checkb "p>1" true (Prng.chance t 2.0)

let test_prng_shuffle_permutes () =
  let t = Prng.create 19 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check
    Alcotest.(array int)
    "shuffle keeps elements" (Array.init 50 (fun i -> i)) sorted

let test_prng_sample () =
  let t = Prng.create 23 in
  let s = Prng.sample t 10 30 in
  checki "sample size" 10 (List.length s);
  checki "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> checkb "in range" true (x >= 0 && x < 30)) s;
  checki "k = n works" 5 (List.length (Prng.sample t 5 5));
  Alcotest.check_raises "k > n rejected"
    (Invalid_argument "Prng.sample: need 0 <= k <= n") (fun () ->
      ignore (Prng.sample t 6 5))

let test_prng_pick () =
  let t = Prng.create 29 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    checkb "pick from array" true (Array.mem (Prng.pick t a) a)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick t [||]))

(* SplitMix64 as the generator was first written, on a boxed mutable
   state: the generator's unboxed state must draw the same streams. *)
module Ref_splitmix = struct
  type t = { mutable state : int64 }

  let mix64 z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let create seed = { state = mix64 (Int64.of_int seed) }
  let copy t = { state = t.state }

  let bits64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix64 t.state

  let split t = { state = mix64 (bits64 t) }
  let int t bound = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) mod bound

  let float t bound =
    bound
    *. (Int64.to_float (Int64.shift_right_logical (bits64 t) 11)
       /. 9007199254740992.0)
end

let test_prng_matches_reference () =
  let same p r =
    for i = 1 to 100 do
      match i mod 3 with
      | 0 -> check Alcotest.int64 "bits64" (Ref_splitmix.bits64 r) (Prng.bits64 p)
      | 1 -> checki "int" (Ref_splitmix.int r (1 + i)) (Prng.int p (1 + i))
      | _ ->
        check (Alcotest.float 0.0) "float" (Ref_splitmix.float r 7.5)
          (Prng.float p 7.5)
    done
  in
  List.iter
    (fun seed ->
      let p = Prng.create seed and r = Ref_splitmix.create seed in
      same p r;
      let pc = Prng.split p and rc = Ref_splitmix.split r in
      same pc rc;
      same p r;
      let pk = Prng.copy p and rk = Ref_splitmix.copy r in
      same pk rk;
      same p r)
    [ 0; 1; 7; 42; 104729; -3; max_int; min_int ]

let test_prng_int_allocates_nothing () =
  let t = Prng.create 11 and acc = ref 0 and draws = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to draws do
    acc := !acc + Prng.int t 1000
  done;
  let words = Gc.minor_words () -. w0 in
  checkb "draws in range" true (!acc >= 0);
  checkb
    (Printf.sprintf "%.0f minor words over %d draws, under 1 per 1000" words
       draws)
    true
    (words < float_of_int draws /. 1000.0)

let prop_prng_sample_distinct =
  QCheck.Test.make ~name:"sample always distinct and in range" ~count:200
    QCheck.(pair (int_bound 50) small_int)
    (fun (k, seed) ->
      let n = 60 in
      let t = Prng.create seed in
      let s = Prng.sample t k n in
      List.length s = k
      && List.length (List.sort_uniq compare s) = k
      && List.for_all (fun x -> x >= 0 && x < n) s)

(* ---------------- Heap ---------------- *)

let test_heap_basic () =
  let h = Heap.create () in
  checkb "empty" true (Heap.is_empty h);
  Heap.add h ~key:3.0 "c";
  Heap.add h ~key:1.0 "a";
  Heap.add h ~key:2.0 "b";
  checki "length" 3 (Heap.length h);
  check Alcotest.(option (float 0.0)) "min key" (Some 1.0)
    (Option.map fst (Heap.peek h));
  check
    Alcotest.(option (pair (float 0.0) string))
    "peek" (Some (1.0, "a")) (Heap.peek h);
  let keys = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (k, _) ->
      keys := k :: !keys;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list (float 0.0)) "sorted drain" [ 1.0; 2.0; 3.0 ] (List.rev !keys)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.add h ~key:5.0 v) [ 1; 2; 3; 4; 5 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list int) "equal keys pop FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !out)

let test_heap_pop_empty () =
  let h = Heap.create () in
  checkb "pop on empty" true (Heap.pop h = None);
  Heap.add h ~key:1.0 ();
  ignore (Heap.pop h);
  checkb "pop on drained" true (Heap.pop h = None)

let test_heap_clear_and_iter () =
  let h = Heap.create () in
  for i = 1 to 10 do
    Heap.add h ~key:(float_of_int i) i
  done;
  let seen = ref 0 in
  Heap.iter h (fun _ _ -> incr seen);
  checki "iter visits all" 10 !seen;
  while Heap.pop h <> None do
    ()
  done;
  checki "popping clears" 0 (Heap.length h);
  Heap.add h ~key:1.0 99;
  check Alcotest.(option (pair (float 0.0) int)) "usable after clear" (Some (1.0, 99))
    (Heap.pop h)

(* Regression: popping the entry that empties a queue used to leave a
   slot aliasing it, keeping the value reachable forever. The binary
   heap is the boxed-payload queue (the radix heap holds ints only):
   the weak pointer must go dead once the queue (still live) let go,
   and the queue stays usable afterwards. *)
let check_pop_releases_last_entry name ~add ~pop ~length =
  let w = Weak.create 1 in
  (let value = ref 12345 in
   Weak.set w 0 (Some value);
   add ~key:1.0 value;
   match pop () with
   | Some (_, v) -> checki (name ^ ": popped the value") 12345 !v
   | None -> Alcotest.fail (name ^ ": pop on singleton queue"));
  Gc.full_major ();
  checki (name ^ ": empty") 0 (length ());
  checkb (name ^ ": popped value unreachable") false (Weak.check w 0);
  add ~key:2.0 (ref 7);
  add ~key:1.0 (ref 8);
  match pop () with
  | Some (k, v) ->
    check (Alcotest.float 0.0) (name ^ ": min key after refill") 1.0 k;
    checki (name ^ ": value after refill") 8 !v
  | None -> Alcotest.fail (name ^ ": pop after refill")

let test_heap_pop_releases_last_entry () =
  let h = Heap.create ~capacity:4 () in
  check_pop_releases_last_entry "heap" ~add:(Heap.add h)
    ~pop:(fun () -> Heap.pop h)
    ~length:(fun () -> Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.add h ~key:k k) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* ---------------- Stats ---------------- *)

let test_stats_empty () =
  let s = Stats.create () in
  checki "count" 0 (Stats.count s);
  checkf "mean" 0.0 (Stats.mean s)

let test_stats_known () =
  let s = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  checkf "mean" 5.0 (Stats.mean s);
  checkf "min" 2.0 (Stats.min s);
  checkf "max" 9.0 (Stats.max s)

let test_stats_median_percentile () =
  checkf "odd median" 3.0 (Stats.median_l [ 5.0; 1.0; 3.0 ]);
  checkf "even median" 2.5 (Stats.median_l [ 4.0; 1.0; 2.0; 3.0 ]);
  checkf "empty median" 0.0 (Stats.median_l []);
  checkf "p100 is max" 9.0 (Stats.percentile_l 100.0 [ 1.0; 9.0; 5.0 ]);
  checkf "p0 is min" 1.0 (Stats.percentile_l 0.0 [ 1.0; 9.0; 5.0 ])

let prop_stats_welford_matches_naive =
  QCheck.Test.make ~name:"welford mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 100.0))
    (fun xs ->
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean (Stats.of_list xs) -. naive) < 1e-6)

(* ---------------- Unionfind ---------------- *)

let test_unionfind () =
  let u = Unionfind.create 6 in
  checki "initial sets" 6 (Unionfind.count u);
  checkb "fresh union" true (Unionfind.union u 0 1);
  checkb "redundant union" false (Unionfind.union u 1 0);
  ignore (Unionfind.union u 2 3);
  ignore (Unionfind.union u 0 2);
  checkb "transitively same" true (Unionfind.find u 1 = Unionfind.find u 3);
  checkb "separate" false (Unionfind.find u 4 = Unionfind.find u 5);
  checki "sets after merges" 3 (Unionfind.count u)

let prop_unionfind_count =
  QCheck.Test.make ~name:"set count decreases exactly on fresh unions" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let u = Unionfind.create 20 in
      let fresh = List.fold_left (fun acc (a, b) ->
          if Unionfind.union u a b then acc + 1 else acc) 0 pairs
      in
      Unionfind.count u = 20 - fresh)

(* ---------------- Texttab ---------------- *)

let test_texttab_render () =
  let t = Texttab.create [ Texttab.column ~align:Texttab.Left "name"; Texttab.column "v" ] in
  Texttab.add_row t [ "alpha"; "1" ];
  Texttab.add_row t [ "b"; "22" ];
  let rendered = Texttab.render t in
  let lines = String.split_on_char '\n' rendered in
  checki "line count" 4 (List.length lines);
  (match lines with
  | header :: rule :: _ ->
    checki "rule width matches header" (String.length header) (String.length rule)
  | _ -> Alcotest.fail "missing lines");
  checkb "contains alpha" true
    (List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha") lines)

let test_texttab_width_mismatch () =
  let t = Texttab.create [ Texttab.column "a" ] in
  Alcotest.check_raises "row too wide" (Invalid_argument "Texttab.add_row: row width mismatch")
    (fun () -> Texttab.add_row t [ "1"; "2" ])

let test_texttab_float_row () =
  let t = Texttab.create [ Texttab.column ~align:Texttab.Left "k"; Texttab.column "x" ] in
  Texttab.add_float_row t ~decimals:1 "row" [ 3.14159 ];
  checkb "formats with decimals" true
    (String.length (Texttab.render t) > 0
    && String.ends_with ~suffix:"3.1" (Texttab.render t))

let test_texttab_csv () =
  let t = Texttab.create [ Texttab.column ~align:Texttab.Left "k"; Texttab.column "v" ] in
  Texttab.add_row t [ "plain"; "1" ];
  Texttab.add_row t [ "with,comma"; "quo\"te" ];
  Alcotest.check Alcotest.string "csv"
    "k,v\nplain,1\n\"with,comma\",\"quo\"\"te\"\n" (Texttab.to_csv t)

let qc = QCheck_alcotest.to_alcotest

(* ---------------- Weak_memo ---------------- *)

(* Values are fresh blocks tagged with their key; [made] counts the
   calls to [make], so a rebuild is seen even when it builds an equal
   value. *)
let memo_probe memo made k =
  Weak_memo.find memo ~same:Int.equal k (fun () ->
      incr made;
      ref k)

(* The two most recent values outlive every caller's reference and a
   full collection; an older one is only weakly held, and a rebuilt
   value is equal to the first. *)
let test_weak_memo_hold () =
  let memo = Weak_memo.create ~hold:2 () and made = ref 0 in
  let first = memo_probe memo made 1 in
  let first_id = !first in
  ignore (Sys.opaque_identity (memo_probe memo made 2));
  ignore (Sys.opaque_identity (memo_probe memo made 3));
  checki "three built" 3 !made;
  Gc.full_major ();
  ignore (Sys.opaque_identity (memo_probe memo made 2));
  ignore (Sys.opaque_identity (memo_probe memo made 3));
  checki "the two held are shared" 3 !made;
  checkb "a held value is returned as is" true
    (memo_probe memo made 1 == first);
  checki "the caller's value is shared too" 3 !made;
  checki "equal value" first_id !(memo_probe memo made 1)

let test_weak_memo_weak () =
  let memo = Weak_memo.create () and made = ref 0 in
  ignore (Sys.opaque_identity (memo_probe memo made 1));
  Gc.full_major ();
  ignore (Sys.opaque_identity (memo_probe memo made 1));
  checki "dropped and collected, so rebuilt" 2 !made;
  (* eight slots round-robin: a ninth key evicts the first slot *)
  let held = List.init 9 (fun k -> memo_probe memo made (10 + k)) in
  let made_before = !made in
  ignore (memo_probe memo made 10);
  checki "evicted key rebuilt" (made_before + 1) !made;
  ignore (memo_probe memo made 18);
  checki "resident key shared" (made_before + 1) !made;
  ignore (Sys.opaque_identity held)

let () =
  Alcotest.run "scmp_util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "sample" `Quick test_prng_sample;
          Alcotest.test_case "pick" `Quick test_prng_pick;
          Alcotest.test_case "matches reference SplitMix64" `Quick
            test_prng_matches_reference;
          Alcotest.test_case "int allocates nothing" `Quick
            test_prng_int_allocates_nothing;
          qc prop_prng_sample_distinct;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
          Alcotest.test_case "clear/iter" `Quick test_heap_clear_and_iter;
          Alcotest.test_case "pop releases last entry" `Quick
            test_heap_pop_releases_last_entry;
          qc prop_heap_sorts;
        ] );
      ( "weak-memo",
        [
          Alcotest.test_case "recent values held" `Quick test_weak_memo_hold;
          Alcotest.test_case "older values weak, slots round-robin" `Quick
            test_weak_memo_weak;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "median/percentile" `Quick test_stats_median_percentile;
          qc prop_stats_welford_matches_naive;
        ] );
      ( "unionfind",
        [
          Alcotest.test_case "basic" `Quick test_unionfind;
          qc prop_unionfind_count;
        ] );
      ( "texttab",
        [
          Alcotest.test_case "render" `Quick test_texttab_render;
          Alcotest.test_case "width mismatch" `Quick test_texttab_width_mismatch;
          Alcotest.test_case "float rows" `Quick test_texttab_float_row;
          Alcotest.test_case "csv" `Quick test_texttab_csv;
        ] );
    ]
