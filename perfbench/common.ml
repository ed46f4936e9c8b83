(* What the three workloads share: the structures, their builds, the
   checked single-query call and the per-structure latency samples. *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Query_engine = Lcsearch_index.Query_engine

let structures = [| "h2"; "h3"; "ptree" |]
let dim_of = function "h3" -> 3 | _ -> 2

type config = {
  seed : int;
  seconds : float;
  n : int;  (** points per structure *)
  fraction : float;  (** query selectivity *)
  work : string;  (** scratch directory inside the checkout *)
  lcsearch : string;  (** the lcsearch binary *)
  setup_repeats : int;
}

let ns_to_us ns = float_of_int ns /. 1e3
let ns_to_s ns = float_of_int ns /. 1e9

type built = {
  name : string;
  inst : Index.instance;
  build_ns : int;
  build_ios : int;
}

let build name rows =
  let m = Registry.find_exn name in
  let ds = Gen.dataset_for m ~dim:(dim_of name) rows in
  let stats = Emio.Io_stats.create () in
  let sp = Span.enter (Span.intern ("core.build." ^ name)) 0 in
  let t0 = Clock.now () in
  let inst = Index.build m ~params:Index.default_params ~stats ds in
  let build_ns = Clock.now () - t0 in
  Span.leave sp;
  { name; inst; build_ns; build_ios = Emio.Io_stats.total stats }

let ceil_div a b = (a + b - 1) / b

(* Latency samples (ns) and model reads for one structure. *)
type lat = { ns : Sample.t; mutable reads : int; mutable results : int }

let lat () = { ns = Sample.create (); reads = 0; results = 0 }
let lats () = Array.init (Array.length structures) (fun _ -> lat ())

let reporter = Emio.Reporter.create ()

let sorted_ids r =
  let a = Emio.Reporter.to_array r in
  Array.sort Int.compare a;
  a

let ids_equal (a : int array) (b : int array) =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* One timed [Query_engine.run_one], checked against the oracle answer.
   [static] adds the read lower bound ceil(count/B): a static structure
   whose blocks hold at most B points cannot report [count] points in
   fewer reads.  Returns the cost record. *)
let run_checked rep ~static ~span ~req ~label inst (q : Index.query)
    (want : Gen.answer) (l : lat) =
  let ids = Index.reports_ids inst in
  Emio.Reporter.clear reporter;
  Report.attempt rep;
  let sp = Span.enter span req in
  let t0 = Clock.now () in
  let c =
    if ids then Query_engine.run_one ~reporter inst q
    else Query_engine.run_one inst q
  in
  let dt = Clock.now () - t0 in
  Span.leave sp;
  Sample.add l.ns dt;
  l.reads <- l.reads + c.Query_engine.reads;
  l.results <- l.results + c.Query_engine.result;
  if c.Query_engine.result <> want.Gen.count then
    Report.fail rep "%s: count %d, oracle %d" label c.Query_engine.result
      want.Gen.count
  else if ids && not (ids_equal (sorted_ids reporter) want.Gen.ids) then
    Report.fail rep "%s: id set differs from the oracle" label
  else if static && c.Query_engine.reads < ceil_div want.Gen.count Gen.block_size
  then
    Report.fail rep "%s: %d reads for %d results (B=%d)" label
      c.Query_engine.reads want.Gen.count Gen.block_size;
  c

(* {2 Timed windows}

   The host is shared: other tenants take turns at the cores and at the
   caches they share.  Two choices keep a run's figures steady.  Each
   structure's operations run back to back in blocks, so a query finds
   its structure warm in cache rather than evicted by another
   structure's query; and every figure is taken over whole rounds of a
   fixed operation sequence, so a seed fixes the mix exactly. *)

(* Run [round] until [seconds] pass; only whole rounds run. *)
let for_seconds ~seconds round =
  let stop = Clock.now () + int_of_float (seconds *. 1e9) in
  while Clock.now () < stop do
    round ()
  done

let ops (ls : lat array) = Array.fold_left (fun a l -> a + Sample.length l.ns) 0 ls
let busy_ns (ls : lat array) = Array.fold_left (fun a l -> a + Sample.sum l.ns) 0 ls

(* The latency metrics every workload reports: the median latency per
   structure over [ls], and the mean model reads per query over [ls]
   and [also].  Throughput (with [extra_ops] operations taking
   [extra_ns] besides the queries) and the p90 and p99 latencies go to
   standard error only: on a shared host they moved by more than a
   quarter from run to run while the medians held (see README.md). *)
let latency_metrics rep ?(extra_ops = 0) ?(extra_ns = 0) ?(also = [||]) ls =
  Array.iteri
    (fun i l ->
      let name = structures.(i) and s = Sample.sorted l.ns in
      Report.metric rep ("p50_us." ^ name) "us" (ns_to_us (Sample.rank s 0.5));
      Report.note rep "%s: p90 %.1f us, p99 %.1f us over %d queries" name
        (ns_to_us (Sample.rank s 0.9))
        (ns_to_us (Sample.rank s 0.99))
        (Array.length s))
    ls;
  let all = Array.append ls also in
  Report.note rep "%.1f operations per second of timed calls"
    (float_of_int (extra_ops + ops all) /. ns_to_s (max 1 (extra_ns + busy_ns all)));
  let reads = Array.fold_left (fun a l -> a + l.reads) 0 all in
  Report.metric rep "reads_per_query" "blocks"
    (float_of_int reads /. float_of_int (max 1 (ops all)))

(* Median of [repeats] timed set-ups; only the last set-up's value is
   kept, so earlier copies are garbage before the next one starts.  [f]
   returns its value and the nanoseconds it spent on work that is not
   set-up (fsync-bound saves, stopping a server). *)
let repeat_setup ~repeats f =
  let times = ref [] and result = ref None in
  for i = 0 to repeats - 1 do
    Gc.compact ();
    let last = i = repeats - 1 in
    let t0 = Clock.now () in
    let v, untimed_ns = f ~last in
    times := ns_to_s (Clock.now () - t0 - untimed_ns) :: !times;
    if last then result := Some v
  done;
  (Sample.median_f !times, Option.get !result)

(* GC counters over a window, per operation. *)
type gc_mark = { minor : float; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; major = s.Gc.major_collections }

let gc_metrics rep ~workload ~ops (m0 : gc_mark) =
  let m1 = gc_mark () in
  Report.metric rep ("gc.minor_words_per_op." ^ workload) "words"
    ((m1.minor -. m0.minor) /. float_of_int (max 1 ops));
  Report.metric rep ("gc.major_collections." ^ workload) "count"
    (float_of_int (m1.major - m0.major))

(* minor words allocated by [f] *)
let words f =
  let w0 = Gc.minor_words () in
  let v = f () in
  let w1 = Gc.minor_words () in
  (v, w1 -. w0)

let rm_rf path =
  let rec go p =
    match (Unix.lstat p).Unix.st_kind with
    | Unix.S_DIR ->
        Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Sys.remove p
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  go path

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path
