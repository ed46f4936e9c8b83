(* The run's result: operation accounting plus named metrics, printed
   as the last line of standard output. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable metrics : (string * float * string) list;  (** reversed *)
  mutable notes : string list;
      (** lines for standard error: notes and the first failures, reversed *)
}

let create () =
  { attempted = 0; failed = 0; correct = true; metrics = []; notes = [] }

let attempt r = r.attempted <- r.attempted + 1

let fail r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      if List.length r.notes < 10 then r.notes <- msg :: r.notes)
    fmt

(* A check that is not one operation: its failure makes the run
   incorrect. *)
let require r ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        r.correct <- false;
        r.notes <- msg :: r.notes
      end)
    fmt

(* A line for standard error that is not a failure. *)
let note r fmt = Printf.ksprintf (fun msg -> r.notes <- msg :: r.notes) fmt

let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let to_json r =
  let ms =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " ms)
