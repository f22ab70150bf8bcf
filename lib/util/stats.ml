type t = {
  mutable n : int;
  mutable mean : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { n = 0; mean = 0.0; min_v = infinity; max_v = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.mean
let min t = t.min_v
let max t = t.max_v

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let sorted xs = List.sort Float.compare xs

let median_l xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    let a = Array.of_list s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile_l p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
