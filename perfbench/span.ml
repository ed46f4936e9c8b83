(* Spans recorded by the benchmark's own call sites in a traced run.
   Each span has a name, start and end (monotonic ns), a parent span
   (-1 at the root) and a request id shared by every span of one
   operation.  Spans stay in preallocated arrays until the run writes
   them out; with tracing off [enter] returns -1 and records nothing. *)

let on = ref false

let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_tab = ref [||]

let intern s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names s i;
      name_tab := Array.append !name_tab [| s |];
      i

let name_of i = !name_tab.(i)

type buf = {
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
}

let b =
  let z () = Array.make 4096 0 in
  { n = 0; name = z (); start = z (); stop = z (); parent = z (); req = z () }

let current = ref (-1)

let grow () =
  let g a =
    let c = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 c 0 b.n;
    c
  in
  b.name <- g b.name;
  b.start <- g b.start;
  b.stop <- g b.stop;
  b.parent <- g b.parent;
  b.req <- g b.req

let enter name req =
  if name < 0 || not !on then -1
  else begin
    if b.n = Array.length b.name then grow ();
    let i = b.n in
    b.n <- i + 1;
    b.name.(i) <- name;
    b.parent.(i) <- !current;
    b.req.(i) <- req;
    b.stop.(i) <- -1;
    current := i;
    b.start.(i) <- Clock.now ();
    i
  end

let leave i =
  if i >= 0 then begin
    b.stop.(i) <- Clock.now ();
    current := b.parent.(i)
  end

let with_ name req f =
  let s = enter name req in
  match f () with
  | v ->
      leave s;
      v
  | exception e ->
      leave s;
      raise e

let dur i = b.stop.(i) - b.start.(i)

(* Spans recorded since [mark] *)
let mark () = b.n

(* durations (ns) of the spans named [name] recorded since [from] *)
let durations ?(from = 0) name =
  let s = Sample.create () in
  for i = from to b.n - 1 do
    if b.name.(i) = name && b.stop.(i) >= 0 then Sample.add s (dur i)
  done;
  s

(* Per-name totals: (name, count, total ns, self ns), where self time
   is the span's duration minus that of its children. *)
let summary () =
  let k = Hashtbl.length names in
  let cnt = Array.make k 0 and tot = Array.make k 0 and self = Array.make k 0 in
  for i = 0 to b.n - 1 do
    if b.stop.(i) >= 0 then begin
      let nm = b.name.(i) and d = dur i in
      cnt.(nm) <- cnt.(nm) + 1;
      tot.(nm) <- tot.(nm) + d;
      self.(nm) <- self.(nm) + d;
      let p = b.parent.(i) in
      if p >= 0 then self.(b.name.(p)) <- self.(b.name.(p)) - d
    end
  done;
  List.filter_map
    (fun nm -> if cnt.(nm) = 0 then None else Some (name_of nm, cnt.(nm), tot.(nm), self.(nm)))
    (List.init k Fun.id)

(* One JSON object per line: {"i","name","start_ns","end_ns","parent","req"}. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to b.n - 1 do
        Printf.fprintf oc
          "{\"i\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
          i (name_of b.name.(i)) b.start.(i) b.stop.(i) b.parent.(i) b.req.(i)
      done)
