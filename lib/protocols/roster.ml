(* A doubly linked list threaded through two int arrays indexed by
   router, with a membership byte per router: [next.(x)] and
   [prev.(x)] are [x]'s neighbours in join order (-1 at the ends) and
   mean nothing while [x] is off the roster. Lists are built from the
   [tail] back, so no head is kept. *)
type t = {
  next : int array;
  prev : int array;
  inside : Bytes.t;
  mutable tail : int;
}

let create n =
  {
    next = Array.make n (-1);
    prev = Array.make n (-1);
    inside = Bytes.make n '\000';
    tail = -1;
  }

let mem t x = x >= 0 && x < Bytes.length t.inside && Bytes.get t.inside x = '\001'

let add t x =
  if not (mem t x) then begin
    Bytes.set t.inside x '\001';
    t.prev.(x) <- t.tail;
    t.next.(x) <- -1;
    if t.tail >= 0 then t.next.(t.tail) <- x;
    t.tail <- x
  end

let remove t x =
  if mem t x then begin
    Bytes.set t.inside x '\000';
    let p = t.prev.(x) and n = t.next.(x) in
    if p >= 0 then t.next.(p) <- n;
    if n < 0 then t.tail <- p else t.prev.(n) <- p
  end

let to_list t =
  let rec back x acc = if x < 0 then acc else back t.prev.(x) (x :: acc) in
  back t.tail []
