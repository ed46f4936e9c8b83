(* Inputs and the brute-force oracle.  Points are coordinate rows; a
   query is the paper's x_d <= a0 + sum a_i x_i.  Each boundary is
   placed midway between two adjacent residuals r_i = x_d - sum a_i x_i
   whose gap is at least [min_gap], so membership never depends on a
   geometric epsilon; [check_clearance] re-verifies that no point lies
   within 1e-6 of any boundary and aborts the run otherwise. *)

module Index = Lcsearch_index.Index

let block_size = Index.default_params.block_size
let range2 = 100.
let range3 = 50.
let slope_range = 1.5
let min_gap = 2e-4
let clearance = 1e-6

exception Boundary_too_close of string

(* The point sets are the same in every run: they come from this fixed
   seed, not from --seed, so every run measures the same structures and
   a difference between runs is the code's or the host's, not the luck
   of one sample.  --seed draws the queries, the request stream and the
   update stream. *)
let data_seed = 0x1c5ea4c

let points rng ~dim ~n =
  let range = if dim = 2 then range2 else range3 in
  Array.init n (fun _ -> Array.init dim (fun _ -> Rng.symmetric rng range))

(* the fixed point set of structure [index] *)
let fixed_points ~index ~dim ~n =
  points (Rng.make ~seed:data_seed ~stream:index) ~dim ~n

let random_point rng ~dim =
  let range = if dim = 2 then range2 else range3 in
  Array.init dim (fun _ -> Rng.symmetric rng range)

let dataset ~dim rows =
  if dim = 2 then
    Index.Pts2 (Array.map (fun r -> Geom.Point2.make r.(0) r.(1)) rows)
  else Index.Pts3 (Array.map (fun r -> Geom.Point3.make r.(0) r.(1) r.(2)) rows)

(* ptree takes d-dimensional rows, h2/h3 their point types *)
let dataset_for (module M : Index.S) ~dim rows =
  match M.preferred ~dim with
  | `PtsD -> Index.PtsD (Array.map Array.copy rows)
  | `Pts2 | `Pts3 -> dataset ~dim rows

let residual (a : float array) (row : float array) =
  let d = Array.length row in
  let s = ref row.(d - 1) in
  for j = 0 to d - 2 do
    s := !s -. (a.(j) *. row.(j))
  done;
  !s

type answer = {
  count : int;
  ids : int array;  (** sorted; ids are positions in [rows] or handles *)
}

(* Brute force over [rows]; [id_of i] maps a row position to the id the
   structure reports. *)
let brute ?(id_of = Fun.id) (q : Index.query) rows =
  let ids = ref [] and n = ref 0 in
  Array.iteri
    (fun i r ->
      if residual q.a r <= q.a0 then begin
        incr n;
        ids := id_of i :: !ids
      end)
    rows;
  let ids = Array.of_list !ids in
  Array.sort Int.compare ids;
  { count = !n; ids }

let check_clearance (q : Index.query) rows =
  let norm = sqrt (1. +. Array.fold_left (fun s x -> s +. (x *. x)) 0. q.a) in
  Array.iter
    (fun r ->
      let d = Float.abs (residual q.a r -. q.a0) /. norm in
      if d < clearance then
        raise
          (Boundary_too_close
             (Printf.sprintf "a point lies %.3g from the boundary a0=%.17g" d
                q.a0)))
    rows

(* Rearrange [r] so that r.(k) holds the k-th smallest value, smaller
   ones before it and larger ones after (Hoare's selection). *)
let select (r : float array) k =
  let lo = ref 0 and hi = ref (Array.length r - 1) in
  while !lo < !hi do
    let pivot = r.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while r.(!i) < pivot do incr i done;
      while r.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = r.(!i) in
        r.(!i) <- r.(!j);
        r.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done

(* A query over [rows] selecting about [fraction] of them. *)
let query rng ~fraction rows : Index.query =
  let n = Array.length rows in
  if n < 2 then invalid_arg "Gen.query: fewer than two points";
  let dim = Array.length rows.(0) in
  let a = Array.init (dim - 1) (fun _ -> Rng.symmetric rng slope_range) in
  let r = Array.map (residual a) rows in
  let k = max 1 (min (n - 1) (int_of_float (fraction *. float_of_int n))) in
  (* the split between the k smallest residuals and the rest; when its
     gap is too narrow, the nearest split (in full sorted order) whose
     gap clears [min_gap] *)
  select r k;
  let below = ref neg_infinity in
  for i = 0 to k - 1 do
    if r.(i) > !below then below := r.(i)
  done;
  let a0 =
    if r.(k) -. !below >= min_gap then (!below +. r.(k)) /. 2.
    else begin
      Array.sort Float.compare r;
      let ok j = j >= 1 && j <= n - 1 && r.(j) -. r.(j - 1) >= min_gap in
      let rec find o =
        if o > n then raise (Boundary_too_close "no residual gap clears the minimum")
        else if ok (k + o) then k + o
        else if ok (k - o) then k - o
        else find (o + 1)
      in
      let j = find 1 in
      (r.(j - 1) +. r.(j)) /. 2.
    end
  in
  let q = { Index.a0; a } in
  check_clearance q rows;
  q

(* [count] distinct queries, each with its oracle answer. *)
let pool rng ~fraction ~count rows =
  Array.init count (fun _ ->
      let q = query rng ~fraction rows in
      (q, brute q rows))
