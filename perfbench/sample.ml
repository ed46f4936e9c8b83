(* Growable int samples and order statistics. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let length t = t.n

let sum t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.a.(i)
  done;
  !s

let sorted t =
  let b = Array.sub t.a 0 t.n in
  Array.sort Int.compare b;
  b

(* nearest-rank percentile, p in [0, 1] *)
let rank (sorted : int array) p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Sample.rank: empty sample";
  let r = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(min n (max 1 r) - 1)

let percentile t p = rank (sorted t) p

(* median of a float list (setup repeats) *)
let median_f xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median_f: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
