(* perfbench: one benchmark for lcsearch, three workloads.

     main.exe --workload query-mem|serve-zipf|lsm-churn --seed N
              --seconds S --trace 0|1 --lcsearch PATH --work DIR
              [--n N]

   Untraced (--trace 0), a run measures the named workload and prints
   its end-to-end metrics.  Traced (--trace 1), a run covers the whole
   stack whatever the workload: each of the three workloads runs for a
   third of the window, half untraced and half traced, and the run
   prints every per-layer metric, a per-span self-time table and the
   tracing overhead, and writes its spans to DIR.  The last line of
   standard output is always the JSON result. *)

let workloads = [ "query-mem"; "serve-zipf"; "lsm-churn" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload query-mem|serve-zipf|lsm-churn --seed N \
     --seconds S --trace 0|1 --lcsearch PATH --work DIR [--n N]";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let get_int ?default k =
    match (Hashtbl.find_opt tbl k, default) with
    | None, Some d -> d
    | _ -> ( match int_of_string_opt (get k) with Some v -> v | None -> usage ())
  in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = get_int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds =
    match float_of_string_opt (get "seconds") with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let cfg =
    {
      Common.seed = get_int "seed";
      seconds;
      n = get_int ~default:8192 "n";
      fraction = 0.02;
      work = get "work";
      lcsearch = get "lcsearch";
      setup_repeats = 3;
    }
  in
  (workload, trace = 1, cfg)

let print_summary () =
  let rows = Span.summary () in
  Printf.printf "%-36s %9s %11s %11s %10s\n" "span" "count" "total_ms" "self_ms"
    "self_us/op";
  List.iter
    (fun (name, cnt, tot, self) ->
      Printf.printf "%-36s %9d %11.2f %11.2f %10.3f\n" name cnt
        (float_of_int tot /. 1e6) (float_of_int self /. 1e6)
        (float_of_int self /. 1e3 /. float_of_int cnt))
    rows;
  rows

(* self time per layer: spans grouped by the first component of their
   name *)
let layer_self rep rows =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, _, _, self) ->
      let layer = List.hd (String.split_on_char '.' name) in
      Hashtbl.replace tbl layer
        (self + Option.value ~default:0 (Hashtbl.find_opt tbl layer)))
    rows;
  List.iter
    (fun (layer, self) ->
      Report.metric rep ("self_ms." ^ layer) "ms" (float_of_int self /. 1e6))
    (List.sort compare (List.of_seq (Hashtbl.to_seq tbl)))

let () =
  let workload, trace, cfg = parse Sys.argv in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rep = Report.create () in
  match
    if not trace then
      match workload with
      | "query-mem" -> Wl_query.run cfg rep
      | "serve-zipf" -> Wl_serve.run cfg rep
      | _ -> Wl_lsm.run cfg rep
    else begin
      Span.on := true;
      let third = { cfg with Common.seconds = cfg.seconds /. 3.; setup_repeats = 1 } in
      Wl_query.trace third rep;
      Wl_serve.trace third rep;
      Wl_lsm.trace third rep;
      Span.on := false;
      Common.mkdir_p cfg.work;
      let path =
        Filename.concat cfg.work
          (Printf.sprintf "spans-%s-seed%d.jsonl" workload cfg.seed)
      in
      Span.write path;
      Printf.printf "spans written to %s\n" path;
      layer_self rep (print_summary ());
      List.iter
        (fun (name, v, _) ->
          if String.starts_with ~prefix:"trace.overhead." name then
            Printf.printf "%s: traced time per operation %.3fx untraced\n" name v)
        (List.rev rep.Report.metrics)
    end
  with
  | () ->
      List.iter (fun m -> prerr_endline ("perfbench: " ^ m)) (List.rev rep.notes);
      print_endline (Report.to_json rep)
  | exception Gen.Boundary_too_close m ->
      prerr_endline ("perfbench: query boundary too close to a point: " ^ m);
      exit 1
