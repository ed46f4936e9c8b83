(* Monotonic nanoseconds. *)
let now () = Int64.to_int (Monotonic_clock.now ())
