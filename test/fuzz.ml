(* Mutation fuzzing shared by the parser tests: byte flips, insertions,
   deletions and truncations of valid inputs. A property over
   [arb_mutant seeds] feeds each parser near-valid text, which reaches
   deeper into a grammar than random bytes do. *)

type mutation =
  | Flip of int * int  (** XOR the byte at a position with a bit. *)
  | Insert of int * char
  | Delete of int
  | Truncate of int

let apply_mutation s m =
  let n = String.length s in
  match m with
  | Flip (i, bit) when n > 0 ->
    let i = i mod n in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl bit)) else c)
      s
  | Insert (i, c) ->
    let i = i mod (n + 1) in
    String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | Delete i when n > 0 ->
    let i = i mod n in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | Truncate i -> String.sub s 0 (i mod (n + 1))
  | Flip _ | Delete _ -> s

let gen_mutation =
  let open QCheck.Gen in
  (* Characters the grammars care about, so insertions often land
     in a value rather than only breaking the syntax. *)
  let char =
    oneof [ oneofl (List.of_seq (String.to_seq "0123456789-+.,:@eE\"[]{} nainfrstohl")); char ]
  in
  oneof
    [
      map2 (fun i b -> Flip (i, b)) nat (int_bound 7);
      map2 (fun i c -> Insert (i, c)) nat char;
      map (fun i -> Delete i) nat;
      map (fun i -> Truncate i) nat;
    ]

let arb_mutant seeds =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      map2 (List.fold_left apply_mutation)
        (fun st -> oneofl (Lazy.force seeds) st)
        (list_size (frequency [ (3, return 1); (1, int_range 2 4) ]) gen_mutation))
