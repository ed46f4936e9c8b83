(* query-mem: Query_engine.run_one over distinct queries on in-memory
   builds of h2, h3 and ptree, one call at a time.  The structure
   traversal and the geometry kernels do nearly all of the work; no
   codec, disk or socket code runs. *)

open Common

let pool_size = 512

type state = { built : built array; pools : (Index.query * Gen.answer) array array }

let setup (cfg : config) =
  let rows =
    Array.mapi (fun i s -> Gen.fixed_points ~index:i ~dim:(dim_of s) ~n:cfg.n) structures
  in
  let qrng = Rng.make ~seed:cfg.seed ~stream:2 in
  let pools =
    Array.map (fun r -> Gen.pool qrng ~fraction:cfg.fraction ~count:pool_size r) rows
  in
  let setup_s, built =
    repeat_setup ~repeats:cfg.setup_repeats (fun ~last:_ ->
        (Array.mapi (fun i s -> build s rows.(i)) structures, 0))
  in
  (setup_s, { built; pools })

(* One round: every pool query once, structure by structure. *)
let round rep st ls ~req =
  Array.iteri
    (fun i b ->
      let span = Span.intern ("query_engine.run_one." ^ b.name) in
      Array.iter
        (fun (q, want) ->
          incr req;
          ignore
            (run_checked rep ~static:true ~span ~req:!req ~label:b.name b.inst q
               want ls.(i)))
        st.pools.(i))
    st.built

let run_window rep st ~seconds =
  let req = ref 0 and ls = lats () in
  for_seconds ~seconds (fun () -> round rep st ls ~req);
  ls

let run (cfg : config) rep =
  let setup_s, st = setup cfg in
  Report.metric rep "setup_s" "s" setup_s;
  Array.iter
    (fun b ->
      Report.note rep "build %s: %.3f s, %d I/Os (N=%d)" b.name (ns_to_s b.build_ns)
        b.build_ios cfg.n)
    st.built;
  latency_metrics rep (run_window rep st ~seconds:cfg.seconds);
  Report.metric rep "space_blocks" "blocks"
    (float_of_int
       (Array.fold_left (fun a b -> a + Index.space_blocks b.inst) 0 st.built));
  Report.metric rep "rss_mb" "MB" (Proc.peak_rss_mb ())

(* Traced: core and query_engine layer figures.  The window runs half
   untraced and half traced, so the traced share's per-operation time
   against the untraced share's is the tracing overhead. *)
let trace (cfg : config) rep =
  let _, st = setup cfg in
  Array.iter
    (fun b ->
      Report.metric rep ("core.build_s." ^ b.name) "s" (ns_to_s b.build_ns);
      Report.metric rep ("core.build_ios." ^ b.name) "count"
        (float_of_int b.build_ios))
    st.built;
  Span.on := false;
  let plain = run_window rep st ~seconds:(cfg.seconds /. 2.) in
  Span.on := true;
  let from = Span.mark () in
  let g0 = gc_mark () in
  let traced = run_window rep st ~seconds:(cfg.seconds /. 2.) in
  gc_metrics rep ~workload:"query-mem" ~ops:(ops traced) g0;
  let per_op ls = float_of_int (busy_ns ls) /. float_of_int (max 1 (ops ls)) in
  Report.metric rep "trace.overhead.query-mem" "ratio" (per_op traced /. per_op plain);
  Array.iteri
    (fun i b ->
      let d = Span.durations ~from (Span.intern ("query_engine.run_one." ^ b.name)) in
      Report.metric rep ("query_engine.run_one_us." ^ b.name) "us"
        (ns_to_us (Sample.percentile d 0.5));
      let l = traced.(i) in
      Report.metric rep ("core.results_per_query." ^ b.name) "count"
        (float_of_int l.results /. float_of_int (max 1 (Sample.length l.ns)));
      (* words: one untraced pass over the pool, outside the window *)
      let total = ref 0. in
      Array.iter
        (fun (q, _) ->
          let _, w =
            words (fun () ->
                if Index.reports_ids b.inst then begin
                  Emio.Reporter.clear reporter;
                  Query_engine.run_one ~reporter b.inst q
                end
                else Query_engine.run_one b.inst q)
          in
          total := !total +. w)
        st.pools.(i);
      Report.metric rep ("query_engine.words_per_query." ^ b.name) "words"
        (!total /. float_of_int pool_size))
    st.built
