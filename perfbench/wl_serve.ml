(* serve-zipf: a closed loop over TCP against an `lcsearch serve` child
   that serves h2, h3 and ptree snapshots this workload builds and
   saves.  A round sends each structure's share of requests back to
   back, each naming a query from a fixed per-structure pool in an
   order drawn once per seed by a Zipf law, so hot planes repeat.
   Frame, reactor, admission, dispatcher and the decode of resident
   snapshot blocks do most of the work. *)

open Common
module Protocol = Serve.Protocol
module Frame = Serve.Frame

(* A plane's rank in the Zipf law is its place in the pool.  With
   exponent 0.6 over 1024 planes the ten hottest take about a tenth of
   the requests, so planes repeat, yet the mix's mean cost does not
   hinge on the one or two planes a seed happens to make hottest. *)
let pool_size = 1024
let zipf_s = 0.6

(* The queueing deadline each request carries.  With one request in
   flight nothing queues; the server's 200 ms default would still shed
   a request that a stalled host held up, which is no fault of the
   program. *)
let deadline_ms = 5000

(* requests per structure in one round *)
let round_len = 512

type expected = { want : Gen.answer; reads : int; writes : int; hits : int }

type server = { pid : int; port : int; out : in_channel }

let start_server (cfg : config) paths =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let argv = Array.of_list ([ cfg.lcsearch; "serve"; "--port"; "0" ] @ paths) in
  let pid = Unix.create_process cfg.lcsearch argv Unix.stdin w null in
  Unix.close w;
  Unix.close null;
  let out = Unix.in_channel_of_descr r in
  let rec banner () =
    match In_channel.input_line out with
    | None ->
        ignore (Unix.waitpid [] pid);
        failwith "lcsearch serve exited before printing its banner"
    | Some l -> (
        match Scanf.sscanf l "serving on %s@:%d" (fun _ p -> p) with
        | p -> p
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> banner ())
  in
  let port = banner () in
  { pid; port; out }

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  wait ();
  close_in_noerr s.out

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rec write_all fd b off len =
  if len > 0 then begin
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)
  end

let rec read_exact fd b off len =
  if len > 0 then begin
    let k = Unix.read fd b off len in
    if k = 0 then failwith "server closed the connection";
    read_exact fd b (off + k) (len - k)
  end

(* One frame off the socket, as raw bytes (prefix included). *)
let read_frame fd =
  let hdr = Bytes.create 4 in
  read_exact fd hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
  if len < 0 || len > Frame.default_max_frame then failwith "bad frame length";
  let b = Bytes.create (4 + len) in
  Bytes.blit hdr 0 b 0 4;
  read_exact fd b 4 len;
  b

type state = {
  servers : server;
  fd : Unix.file_descr;
  opened : Index.instance array;  (** the same snapshots, reopened here *)
  pools : (Index.query * Gen.answer) array array;
  expected : expected array array;
  order : int array array;
      (** per structure, the pool indices one round requests, in order *)
  save_ns : int;
  open_ns : int;
}

let snapshot_path (cfg : config) name = Filename.concat cfg.work (name ^ ".snap")

let meta (cfg : config) name =
  Printf.sprintf "s=%s;n=%d;b=%d;w=uniform;seed=%d;d=%d" name cfg.n
    Gen.block_size cfg.seed (dim_of name)

let setup (cfg : config) rep =
  mkdir_p cfg.work;
  let rows =
    Array.mapi (fun i s -> Gen.fixed_points ~index:i ~dim:(dim_of s) ~n:cfg.n) structures
  in
  let qrng = Rng.make ~seed:cfg.seed ~stream:12 in
  let pools =
    Array.map (fun r -> Gen.pool qrng ~fraction:cfg.fraction ~count:pool_size r) rows
  in
  let paths = Array.to_list (Array.map (snapshot_path cfg) structures) in
  Diskstore.File_backend.set_resident_on_reopen true;
  let setup_s, (srv, opened, save_ns, open_ns) =
    repeat_setup ~repeats:cfg.setup_repeats (fun ~last ->
        let built = Array.mapi (fun i s -> build s rows.(i)) structures in
        (* the save is fsync-bound: timed on its own, not as set-up *)
        let t0 = Clock.now () in
        Array.iter
          (fun b ->
            let path = snapshot_path cfg b.name in
            rm_rf path;
            Span.with_ (Span.intern "snapshot.save") 0 (fun () ->
                Index.snapshot_save b.inst ~path ~meta:(meta cfg b.name)
                  ~page_size:None))
          built;
        let save_ns = Clock.now () - t0 in
        let t1 = Clock.now () in
        let opened =
          Array.map
            (fun s ->
              Span.with_ (Span.intern "snapshot.open") 0 (fun () ->
                  match Serve.Meta.load (snapshot_path cfg s) with
                  | Ok l -> l.Serve.Meta.inst
                  | Error m -> failwith m))
            structures
        in
        let open_ns = Clock.now () - t1 in
        let srv =
          Span.with_ (Span.intern "server.start") 0 (fun () -> start_server cfg paths)
        in
        let stop_ns =
          if last then 0
          else begin
            let t = Clock.now () in
            stop_server srv;
            Clock.now () - t
          end
        in
        ((srv, opened, save_ns, open_ns), save_ns + stop_ns))
  in
  (* Reference costs: run_one on the reopened resident snapshots, the
     figures every served Result must carry. *)
  let expected =
    Array.mapi
      (fun i inst ->
        Array.map
          (fun (q, want) ->
            let c =
              run_checked rep ~static:true ~span:(-1) ~req:0
                ~label:(structures.(i) ^ " snapshot") inst q want (lat ())
            in
            {
              want;
              reads = c.Query_engine.reads;
              writes = c.Query_engine.writes;
              hits = c.Query_engine.hits;
            })
          pools.(i))
      opened
  in
  (* One connection: in probes on a 2-core host, one closed-loop
     connection held throughput within a few percent from run to run,
     while two ranged over a third of it. *)
  let fd = connect srv.port in
  let zipf = Rng.zipf ~n:pool_size ~s:zipf_s and orng = Rng.make ~seed:cfg.seed ~stream:13 in
  let order =
    Array.map (fun _ -> Array.init round_len (fun _ -> Rng.draw_zipf orng zipf)) structures
  in
  ( setup_s,
    {
      servers = srv;
      fd;
      opened;
      pools;
      expected;
      order;
      save_ns;
      open_ns;
    } )

let teardown st =
  (try Unix.close st.fd with Unix.Unix_error _ -> ());
  stop_server st.servers

let sp_send = lazy (Span.intern "client.send")
let sp_wait = lazy (Span.intern "client.wait")
let sp_decode = lazy (Span.intern "frame.decode")

(* sojourn and round-trip samples of the whole window, for the traced
   figures *)
type totals = { sojourn : Sample.t array; rtt : Sample.t }

(* One request: encode, send, wait for the whole reply, decode, check. *)
let request rep st w ls ~req ~si ~k =
  let q, _ = st.pools.(si).(k) in
  let e = st.expected.(si).(k) in
  let name = structures.(si) in
  let want_ids = Index.reports_ids st.opened.(si) in
  Report.attempt rep;
  let root = Span.enter (Span.intern ("serve.request." ^ name)) req in
  let t0 = Clock.now () in
  let sp = Span.enter (Lazy.force sp_send) req in
  let b =
    Frame.encode
      (Protocol.Query
         {
           id = req land 0xffff_ffff;
           structure = name;
           want_ids;
           deadline_ms;
           a0 = q.Index.a0;
           a = q.Index.a;
         })
  in
  write_all st.fd b 0 (Bytes.length b);
  Span.leave sp;
  let sp = Span.enter (Lazy.force sp_wait) req in
  let reply = read_frame st.fd in
  Span.leave sp;
  let sp = Span.enter (Lazy.force sp_decode) req in
  let msg = Frame.decode reply in
  Span.leave sp;
  let dt = Clock.now () - t0 in
  Span.leave root;
  let l = ls.(si) in
  Sample.add l.ns dt;
  Sample.add w.rtt dt;
  match msg with
  | Ok (Protocol.Result r) ->
      Sample.add w.sojourn.(si) r.elapsed_ns;
      l.reads <- l.reads + r.reads;
      l.results <- l.results + r.count;
      let ids = Array.copy r.ids in
      Array.sort Int.compare ids;
      if r.id <> req land 0xffff_ffff then
        Report.fail rep "%s: reply id %d for request %d" name r.id req
      else if r.count <> e.want.Gen.count then
        Report.fail rep "%s: served count %d, oracle %d" name r.count e.want.Gen.count
      else if want_ids && not (ids_equal ids e.want.Gen.ids) then
        Report.fail rep "%s: served ids differ from the oracle" name
      else if r.reads <> e.reads || r.writes <> e.writes || r.hits <> e.hits then
        Report.fail rep "%s: served cost %d/%d/%d, run_one %d/%d/%d" name r.reads
          r.writes r.hits e.reads e.writes e.hits
      else if r.reads < ceil_div r.count Gen.block_size then
        Report.fail rep "%s: %d reads for %d results" name r.reads r.count
  | Ok (Protocol.Shed s) ->
      Report.fail rep "%s: shed (%s)" name (Protocol.shed_reason_name s.reason)
  | Ok (Protocol.Error e) -> Report.fail rep "%s: error frame: %s" name e.message
  | Ok _ -> Report.fail rep "%s: unexpected reply" name
  | Error e -> Report.fail rep "%s: %s" name (Frame.read_error_to_string e)

(* Whole rounds: each structure's share of the round back to back. *)
let run_window rep st ~seconds ~req =
  let w =
    { sojourn = Array.map (fun _ -> Sample.create ()) structures; rtt = Sample.create () }
  and ls = lats () in
  for_seconds ~seconds (fun () ->
      Array.iteri
        (fun si ks ->
          Array.iter
            (fun k ->
              incr req;
              request rep st w ls ~req:!req ~si ~k)
            ks)
        st.order);
  (ls, w)

let requests w = Sample.length w.rtt

let run (cfg : config) rep =
  let setup_s, st = setup cfg rep in
  Fun.protect
    ~finally:(fun () -> teardown st)
    (fun () ->
      Report.metric rep "setup_s" "s" setup_s;
      let ls, _ = run_window rep st ~seconds:cfg.seconds ~req:(ref 0) in
      latency_metrics rep ls;
      Report.metric rep "space_blocks" "blocks"
        (float_of_int
           (Array.fold_left (fun a i -> a + Index.space_blocks i) 0 st.opened));
      Report.metric rep "rss_mb" "MB"
        (Proc.peak_rss_mb ~pid:(string_of_int st.servers.pid) ()))

let stats_query st =
  let b = Frame.encode (Protocol.Stats_query { id = 0 }) in
  write_all st.fd b 0 (Bytes.length b);
  match Frame.decode (read_frame st.fd) with
  | Ok (Protocol.Stats { stats; _ }) -> stats
  | _ -> failwith "no Stats reply"

let median_us s = ns_to_us (Sample.percentile s 0.5)

(* Traced: store, snapshot, frame and server layer figures, plus the
   tracing overhead on the served loop. *)
let trace (cfg : config) rep =
  let _, st = setup cfg rep in
  Fun.protect
    ~finally:(fun () -> teardown st)
    (fun () ->
      Report.metric rep "snapshot.save_s" "s" (ns_to_s st.save_ns);
      Report.metric rep "snapshot.open_s" "s" (ns_to_s st.open_ns);
      (* the resident snapshots in process: the decode share *)
      Array.iteri
        (fun i inst ->
          let ns = Sample.create () and words_total = ref 0. in
          let reps = 4 in
          for _ = 1 to reps do
            Array.iter
              (fun (q, _) ->
                let t0 = Clock.now () in
                let _, w =
                  words (fun () ->
                      if Index.reports_ids inst then begin
                        Emio.Reporter.clear reporter;
                        Query_engine.run_one ~reporter inst q
                      end
                      else Query_engine.run_one inst q)
                in
                Sample.add ns (Clock.now () - t0);
                words_total := !words_total +. w)
              st.pools.(i)
          done;
          let name = structures.(i) in
          Report.metric rep ("store.snap_query_us." ^ name) "us" (median_us ns);
          Report.metric rep ("store.snap_words_per_query." ^ name) "words"
            (!words_total /. float_of_int (reps * pool_size)))
        st.opened;
      (* plane-sorted batch over a Zipf-repeated h3 batch *)
      let h3 = 1 in
      let batch = Array.sub st.order.(h3) 0 256 in
      let qs = Array.map (fun k -> fst st.pools.(h3).(k)) batch in
      let ns = Sample.create () in
      for _ = 1 to 20 do
        let t0 = Clock.now () in
        let costs = Query_engine.run_batch_sorted st.opened.(h3) qs in
        Sample.add ns (Clock.now () - t0);
        Array.iteri
          (fun j (c : Query_engine.cost) ->
            let e = st.expected.(h3).(batch.(j)) in
            Report.attempt rep;
            if c.result <> e.want.Gen.count || c.reads <> e.reads then
              Report.fail rep "h3 sorted batch: count %d reads %d, run_one %d/%d"
                c.result c.reads e.want.Gen.count e.reads)
          costs
      done;
      Report.metric rep "query_engine.sorted_batch_us_per_query.h3" "us"
        (median_us ns /. float_of_int (Array.length qs));
      (* frame: encode + decode of one Query and one Result *)
      let q, want = st.pools.(2).(0) in
      let qmsg =
        Protocol.Query
          { id = 1; structure = "ptree"; want_ids = true; deadline_ms = 0; a0 = q.Index.a0; a = q.Index.a }
      and rmsg =
        Protocol.Result
          { id = 1; count = want.Gen.count; reads = 9; writes = 0; hits = 0; elapsed_ns = 12345; ids = want.Gen.ids }
      in
      let ns = Sample.create () in
      for _ = 1 to 20_000 do
        let t0 = Clock.now () in
        ignore (Frame.decode (Frame.encode qmsg));
        ignore (Frame.decode (Frame.encode rmsg));
        Sample.add ns (Clock.now () - t0)
      done;
      Report.metric rep "frame.roundtrip_us" "us" (median_us ns);
      (* the served loop: half untraced, half traced *)
      let req = ref 0 in
      Span.on := false;
      let _, plain = run_window rep st ~seconds:(cfg.seconds /. 2.) ~req in
      Span.on := true;
      let g0 = gc_mark () in
      let c0 = Proc.cpu_s st.servers.pid and s0 = Proc.self_cpu_s () in
      let before = stats_query st in
      let _, w = run_window rep st ~seconds:(cfg.seconds /. 2.) ~req in
      let after = stats_query st in
      let n = float_of_int (requests w) in
      Report.metric rep "server.cpu_us_per_op" "us"
        ((Proc.cpu_s st.servers.pid -. c0) *. 1e6 /. n);
      Report.metric rep "client.cpu_us_per_op" "us"
        ((Proc.self_cpu_s () -. s0) *. 1e6 /. n);
      gc_metrics rep ~workload:"serve-zipf" ~ops:(requests w) g0;
      Report.metric rep "server.requests_per_batch" "count"
        (float_of_int (after.served - before.served)
        /. float_of_int (max 1 (after.batches - before.batches)));
      let all_sojourn = Sample.create () in
      Array.iteri
        (fun i s ->
          for j = 0 to Sample.length s - 1 do
            Sample.add all_sojourn s.Sample.a.(j)
          done;
          Report.metric rep ("server.sojourn_us." ^ structures.(i)) "us" (median_us s))
        w.sojourn;
      Report.metric rep "server.wire_us" "us" (median_us w.rtt -. median_us all_sojourn);
      let per_op x = float_of_int (Sample.sum x.rtt) /. float_of_int (max 1 (requests x)) in
      Report.metric rep "trace.overhead.serve-zipf" "ratio" (per_op w /. per_op plain))
