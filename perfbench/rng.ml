(* SplitMix64: the benchmark's own generator, so that its inputs depend
   on --seed alone and not on the standard library's Random. *)

type t = { mutable s : int64 }

let make ~seed ~stream =
  { s = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int stream)) }

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  let z = t.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* uniform in [0, 1) with 53 random bits *)
let float t = Int64.(to_float (shift_right_logical (next t) 11)) *. 0x1p-53

(* uniform in [-range, range) *)
let symmetric t range = (float t *. 2. *. range) -. range

let int t bound = Int64.(to_int (unsigned_rem (next t) (of_int bound)))

(* Zipf over ranks 0..n-1 with exponent [s]: P(rank k) ∝ 1/(k+1)^s. *)
type zipf = float array (* cumulative weights, last = 1 *)

let zipf ~n ~s : zipf =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw_zipf t (cdf : zipf) =
  let u = float t in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
