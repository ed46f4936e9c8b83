(* lsm-churn: interleaved inserts, deletes and queries on Lsm.make over
   h2, h3 and ptree, checked against the benchmark's own live set; then
   a directory save, a cold non-resident reopen with the default
   64-page buffer pool, and a second, query-only phase on the reopened
   indexes.  Memtable spills, level rebuilds and query fan-out do the
   churn phase's work; the snapshot write path and buffer-pool reads
   on data larger than the pool do the reopened phase's.

   The merge schedule of the logarithmic method is a function of the
   operation count, so this workload runs a fixed number of rounds per
   second of --seconds instead of a time window: every run of one seed
   does the same merges. *)

open Common
module Lsm = Lcsearch_index.Lsm

let memtable_cap = Lsm.default_memtable_cap

(* per structure and round: [updates] inserts and deletes in turn, then
   [queries] queries whose answers are worked out before the first of
   them runs, so the structure stays warm across them *)
let updates = 16
let queries = 4

(* rounds per second of --seconds, sized so both phases together take
   about --seconds on a 2-core host at this commit *)
let churn_rounds_per_s = 150.
let query_rounds_per_s = 40.

(* The live set: handles and their rows in dense prefixes of two
   parallel arrays; a delete moves the last entry into the hole. *)
type live = {
  mutable vec : int array;
  mutable vrows : float array array;
  mutable len : int;
  mutable next : int;  (** every handle below this was handed out *)
}

type one = {
  name : string;
  inst : Index.instance;
  upd : Index.updater;
  stats : Emio.Io_stats.t;
  live : live;
  rng : Rng.t;
}

let base_n (cfg : config) = cfg.n / 2

let add_live lv h row =
  if lv.len = Array.length lv.vec then begin
    let b = Array.make (2 * lv.len) 0 in
    Array.blit lv.vec 0 b 0 lv.len;
    lv.vec <- b;
    let c = Array.make (2 * lv.len) [||] in
    Array.blit lv.vrows 0 c 0 lv.len;
    lv.vrows <- c
  end;
  lv.vec.(lv.len) <- h;
  lv.vrows.(lv.len) <- row;
  lv.len <- lv.len + 1;
  lv.next <- max lv.next (h + 1)

let setup (cfg : config) =
  let base =
    Array.mapi
      (fun i s -> Gen.fixed_points ~index:(10 + i) ~dim:(dim_of s) ~n:(base_n cfg))
      structures
  in
  repeat_setup ~repeats:cfg.setup_repeats (fun ~last:_ ->
      ( Array.mapi
          (fun i name ->
            let inner = Registry.find_exn name in
            let m = Lsm.make ~memtable_cap ~inner () in
            let stats = Emio.Io_stats.create () in
            let ds = Gen.dataset_for inner ~dim:(dim_of name) base.(i) in
            let inst =
              Span.with_ (Span.intern ("lsm.build." ^ name)) 0 (fun () ->
                  Index.build m ~params:Index.default_params ~stats ds)
            in
            (* Lsm bulk builds hand out handles 0..n-1 in row order *)
            let live = { vec = Array.make 16 0; vrows = Array.make 16 [||]; len = 0; next = 0 } in
            Array.iteri (fun h r -> add_live live h r) base.(i);
            {
              name;
              inst;
              upd = Option.get (Index.updater inst);
              stats;
              live;
              rng = Rng.make ~seed:cfg.seed ~stream:(30 + i);
            })
          structures,
        0 ))

(* The live set as rows plus the handle of each row. *)
let live_rows lv = (Array.sub lv.vrows 0 lv.len, Array.sub lv.vec 0 lv.len)

(* A query generated over the current live set, with its answer. *)
let live_query (cfg : config) o =
  let rows, hs = live_rows o.live in
  let q = Gen.query o.rng ~fraction:cfg.fraction rows in
  (q, Gen.brute ~id_of:(fun i -> hs.(i)) q rows)

(* Query samples of one phase and every update call. *)
type acc = {
  q : lat array;
  upd_ns : Sample.t;
  mutable merge_ns : int;
  mutable merges : int;
}

let acc () = { q = lats (); upd_ns = Sample.create (); merge_ns = 0; merges = 0 }

let counter inst key =
  Option.value ~default:0 (List.assoc_opt key (Index.counters inst))

let sp_insert = lazy (Span.intern "lsm.insert")
let sp_delete = lazy (Span.intern "lsm.delete")

let update rep a o ~req ~trace_merges op =
  Report.attempt rep;
  let m0 = if trace_merges then counter o.inst "merges" else 0 in
  let t0 = Clock.now () in
  (match op with
  | `I ->
      let row = Gen.random_point o.rng ~dim:(dim_of o.name) in
      let sp = Span.enter (Lazy.force sp_insert) req in
      let h = o.upd.Index.u_insert row in
      Span.leave sp;
      if h < o.live.next then
        Report.fail rep "%s: insert returned a used handle %d" o.name h
      else add_live o.live h row
  | `D ->
      let i = Rng.int o.rng o.live.len in
      let h = o.live.vec.(i) in
      let sp = Span.enter (Lazy.force sp_delete) req in
      let ok = o.upd.Index.u_delete h in
      Span.leave sp;
      if not ok then Report.fail rep "%s: delete of live handle %d refused" o.name h
      else begin
        o.live.vec.(i) <- o.live.vec.(o.live.len - 1);
        o.live.vrows.(i) <- o.live.vrows.(o.live.len - 1);
        o.live.len <- o.live.len - 1
      end);
  let dt = Clock.now () - t0 in
  Sample.add a.upd_ns dt;
  if trace_merges then begin
    let dm = counter o.inst "merges" - m0 in
    if dm > 0 then begin
      a.merges <- a.merges + dm;
      a.merge_ns <- a.merge_ns + dt
    end
  end

(* [queries] queries on [inst], checked against the live set.  Working
   out the answers allocates about four times the words the queries
   themselves do.  Left to the collector, a minor collection fell
   inside about one timed query in sixty and made it four times slower,
   charging the benchmark's own work to the program and moving the
   tail from run to run.  So the minor heap is emptied before the timed
   calls; the queries' own garbage is then mostly collected there too,
   and shows in the traced run's gc.* figures rather than in latency. *)
let query_block (cfg : config) rep (ls : lat array) ~req ~si o inst =
  let span = Span.intern ("query_engine.run_one.lsm." ^ o.name) in
  let block = Array.init queries (fun _ -> live_query cfg o) in
  Gc.minor ();
  Array.iter
    (fun (q, want) ->
      incr req;
      ignore
        (run_checked rep ~static:false ~span ~req:!req ~label:(o.name ^ " lsm") inst
           q want ls.(si)))
    block

let churn ?(at_round_end = ignore) cfg rep (os : one array) a ~rounds ~trace_merges
    ~req =
  for _ = 1 to rounds do
    Array.iteri
      (fun si o ->
        for u = 0 to updates - 1 do
          incr req;
          update rep a o ~req:!req ~trace_merges (if u land 1 = 0 then `I else `D)
        done;
        query_block cfg rep a.q ~req ~si o o.inst)
      os;
    at_round_end ()
  done

let lsm_dir (cfg : config) name = Filename.concat cfg.work ("lsm-" ^ name)

(* Save every index, reopen it cold and non-resident; returns the
   reopened instances with their buffer-pool stats sinks and the save
   and open times. *)
let save_reopen (cfg : config) rep (os : one array) =
  mkdir_p cfg.work;
  Diskstore.File_backend.set_resident_on_reopen false;
  let save_ns = ref 0 and open_ns = ref 0 in
  let reopened =
    Array.map
      (fun o ->
        let dir = lsm_dir cfg o.name in
        rm_rf dir;
        let t0 = Clock.now () in
        Span.with_ (Span.intern "lsm.save") 0 (fun () ->
            Index.snapshot_save o.inst ~path:dir
              ~meta:(Printf.sprintf "s=%s;n=%d;b=%d;w=uniform;seed=%d;d=%d" o.name
                       (base_n cfg) Gen.block_size cfg.seed (dim_of o.name))
              ~page_size:None);
        let t1 = Clock.now () in
        save_ns := !save_ns + (t1 - t0);
        let stats = Emio.Io_stats.create () in
        let inst =
          Span.with_ (Span.intern "lsm.open") 0 (fun () ->
              match Lsm.open_snapshot ~stats dir with
              | Ok (inst, _, _) -> inst
              | Error e -> failwith (Diskstore.Snapshot.error_to_string e))
        in
        open_ns := !open_ns + (Clock.now () - t1);
        let u = Option.get (Index.updater inst) in
        Report.require rep
          (u.Index.u_live () = o.live.len)
          "%s: reopened index holds %d live points, the live set %d" o.name
          (u.Index.u_live ()) o.live.len;
        (inst, stats))
      os
  in
  (reopened, !save_ns, !open_ns)

let reopened_phase cfg rep (os : one array) reopened a ~rounds ~req =
  let pages = ref 0 in
  for _ = 1 to rounds do
    Array.iteri
      (fun si o ->
        let inst, stats = reopened.(si) in
        let p0 = Emio.Io_stats.reads stats in
        query_block cfg rep a.q ~req ~si o inst;
        pages := !pages + (Emio.Io_stats.reads stats - p0))
      os
  done;
  float_of_int !pages /. float_of_int (max 1 (ops a.q))

let rounds seconds per_s = max 1 (int_of_float (Float.round (seconds *. per_s)))

let run (cfg : config) rep =
  let setup_s, os = setup cfg in
  Report.metric rep "setup_s" "s" setup_s;
  let a = acc () and b = acc () in
  let req = ref 0 in
  (* the blocks occupied move with every merge: averaged over the
     churn phase's round ends *)
  let space = Sample.create () in
  churn cfg rep os a ~rounds:(rounds cfg.seconds churn_rounds_per_s)
    ~trace_merges:false ~req ~at_round_end:(fun () ->
      Sample.add space (Array.fold_left (fun s o -> s + Index.space_blocks o.inst) 0 os));
  let reopened, _, _ = save_reopen cfg rep os in
  ignore
    (reopened_phase cfg rep os reopened b
       ~rounds:(rounds cfg.seconds query_rounds_per_s) ~req);
  (* Percentiles from the churn phase alone: the reopened phase's
     latencies follow the buffer pool's misses, whose tail moves with
     the level layout a seed leaves, so mixed in they would move the
     tail percentile between the two phases' distributions from seed
     to seed. *)
  latency_metrics rep ~extra_ops:(Sample.length a.upd_ns) ~extra_ns:(Sample.sum a.upd_ns)
    ~also:b.q a.q;
  Report.metric rep "space_blocks" "blocks"
    (float_of_int (Sample.sum space) /. float_of_int (Sample.length space));
  Report.metric rep "rss_mb" "MB" (Proc.peak_rss_mb ())

(* Traced: lsm, buffer-pool and gc figures.  The churn phase runs its
   first half untraced and its second half traced for the overhead. *)
let trace (cfg : config) rep =
  let _, os = setup cfg in
  let req = ref 0 in
  let n = rounds cfg.seconds churn_rounds_per_s in
  let plain = acc () in
  Span.on := false;
  churn cfg rep os plain ~rounds:(n / 2) ~trace_merges:false ~req;
  Span.on := true;
  let from = Span.mark () in
  let a = acc () in
  let g0 = gc_mark () in
  let w0 = Array.fold_left (fun s o -> s + Emio.Io_stats.writes o.stats) 0 os in
  let m0 = Array.map (fun o -> counter o.inst "merges") os in
  churn cfg rep os a ~rounds:(n - (n / 2)) ~trace_merges:true ~req;
  let updates = Sample.length a.upd_ns in
  gc_metrics rep ~workload:"lsm-churn" ~ops:(updates + ops a.q) g0;
  (* the overhead on queries alone: the second half's merges are larger
     than the first half's, so whole-phase times do not compare *)
  let per_query x = float_of_int (busy_ns x.q) /. float_of_int (max 1 (ops x.q)) in
  Report.metric rep "trace.overhead.lsm-churn" "ratio" (per_query a /. per_query plain);
  Report.metric rep "lsm.updates_per_s" "1/s"
    (float_of_int updates /. ns_to_s (max 1 (Sample.sum a.upd_ns)));
  Report.metric rep "lsm.update_us" "us"
    (ns_to_us (Sample.percentile (Span.durations ~from (Lazy.force sp_insert)) 0.5
              + Sample.percentile (Span.durations ~from (Lazy.force sp_delete)) 0.5) /. 2.);
  let merges = Array.fold_left ( + ) 0 (Array.mapi (fun i o -> counter o.inst "merges" - m0.(i)) os) in
  Report.metric rep "lsm.merges" "count" (float_of_int merges);
  Report.metric rep "lsm.merge_ms" "ms"
    (if a.merges = 0 then 0. else float_of_int a.merge_ns /. 1e6 /. float_of_int a.merges);
  let w1 = Array.fold_left (fun s o -> s + Emio.Io_stats.writes o.stats) 0 os in
  Report.metric rep "lsm.write_ios_per_update" "blocks"
    (float_of_int (w1 - w0) /. float_of_int (max 1 updates));
  Report.metric rep "lsm.levels" "count"
    (float_of_int (Array.fold_left (fun s o -> s + counter o.inst "levels") 0 os)
    /. float_of_int (Array.length os));
  (* io factor: reads per query on the Lsm over reads on a static
     rebuild of the live set, same queries *)
  let factors =
    Array.map
      (fun o ->
        let rows, _ = live_rows o.live in
        let m = Registry.find_exn o.name in
        let static =
          Index.build m ~params:Index.default_params ~stats:(Emio.Io_stats.create ())
            (Gen.dataset_for m ~dim:(dim_of o.name) rows)
        in
        let lr = ref 0 and sr = ref 0 in
        for _ = 1 to 32 do
          let q, _ = live_query cfg o in
          lr := !lr + (Query_engine.run_one o.inst q).Query_engine.reads;
          sr := !sr + (Query_engine.run_one static q).Query_engine.reads
        done;
        float_of_int !lr /. float_of_int (max 1 !sr))
      os
  in
  Report.metric rep "lsm.io_factor" "ratio"
    (Array.fold_left ( +. ) 0. factors /. float_of_int (Array.length factors));
  let reopened, save_ns, open_ns = save_reopen cfg rep os in
  Report.metric rep "lsm.save_s" "s" (ns_to_s save_ns);
  Report.metric rep "lsm.open_s" "s" (ns_to_s open_ns);
  let q = acc () in
  let pages =
    reopened_phase cfg rep os reopened q ~rounds:(rounds cfg.seconds query_rounds_per_s) ~req
  in
  Report.metric rep "buffer_pool.pages_read_per_query" "pages" pages
