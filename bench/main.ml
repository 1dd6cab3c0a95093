(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus the extra ablations listed in DESIGN.md and a
   Bechamel microbenchmark section for the core data structures.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe fig7 fig9  -- run selected experiments

   Absolute numbers come from the simulated platform (see EXPERIMENTS.md
   for the calibration); the shapes are what reproduce the paper. *)

module Fixtures = Hinfs_harness.Fixtures
module Experiment = Hinfs_harness.Experiment
module Report = Hinfs_harness.Report
module Workload = Hinfs_workloads.Workload
module Filebench = Hinfs_workloads.Filebench
module Fio = Hinfs_workloads.Fio
module Postmark = Hinfs_workloads.Postmark
module Tpcc = Hinfs_workloads.Tpcc
module Kernel = Hinfs_workloads.Kernel
module Trace = Hinfs_trace.Trace
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Profile = Hinfs_harness.Profile
module Ojson = Hinfs_obs.Ojson
module Obs = Hinfs_obs.Obs
module Hist = Hinfs_obs.Hist
module Server = Hinfs_server.Server
module Clients = Hinfs_server.Clients
module Ofcache = Hinfs_server.Ofcache

let ppf = Fmt.stdout

(* `--shards=N` shards the HiNFS hot state in every cell this runner
   mounts (per-shard buffer pools, journal regions, allocator ranges).
   Default 1 keeps the committed BENCH_HINFS.json byte-stable; the shard
   scalability sweep in [baseline] sets its own per-cell shard counts
   regardless of this flag. *)
let cli_shards =
  Array.fold_left
    (fun acc arg ->
      match String.index_opt arg '=' with
      | Some i when String.sub arg 0 i = "--shards" ->
        int_of_string (String.sub arg (i + 1) (String.length arg - i - 1))
      | _ -> acc)
    1 Sys.argv

let spec = { Experiment.default_spec with Experiment.shards = cli_shards }

(* Shorter windows for the large grids. *)
let grid_duration = 100_000_000L
let sweep_duration = 60_000_000L

let filebench_workloads () =
  [
    ("fileserver", fun () -> Filebench.fileserver ());
    ("webserver", fun () -> Filebench.webserver ());
    ("webproxy", fun () -> Filebench.webproxy ());
    ("varmail", fun () -> Filebench.varmail ());
  ]

let ratio_to_pmfs rows =
  (* rows: (fs_name, ops_per_sec); normalise to the pmfs row. *)
  match List.assoc_opt "pmfs" rows with
  | Some pmfs when pmfs > 0.0 -> List.map (fun (fs, v) -> (fs, v /. pmfs)) rows
  | _ -> rows

(* ------------------------------------------------------------------ *)
(* Figure 1: time breakdown of fio on PMFS across I/O sizes.           *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  Report.heading ppf
    "Figure 1: time breakdown of fio on PMFS (r:w = 1:2, random I/O)";
  let sizes = [ 64; 1024; 4096; 16384; 65536; 262144 ] in
  let rows =
    List.map
      (fun io_size ->
        let workload =
          Fio.make ~params:{ Fio.default_params with Fio.io_size } ()
        in
        let _result, stats, _ =
          Experiment.run_workload ~spec ~threads:1 ~duration:grid_duration
            Fixtures.Pmfs_fs workload
        in
        let total = Int64.to_float (Stats.total_time stats) in
        let pct cat =
          if total <= 0.0 then 0.0
          else 100.0 *. Int64.to_float (Stats.time stats cat) /. total
        in
        let other =
          pct Stats.Other +. pct Stats.Journal +. pct Stats.Block_layer
        in
        [
          Fmt.str "%d B" io_size;
          Report.f1 (pct Stats.Read_access);
          Report.f1 (pct Stats.Write_access);
          Report.f1 other;
        ])
      sizes
  in
  Report.table ppf
    ~header:[ "io size"; "read access %"; "write access %"; "others %" ]
    rows;
  Fmt.pf ppf
    "@.Paper: write access dominates for I/O >= 4 KB (>80%%), and still >= \
     16%% at 64 B.@."

(* ------------------------------------------------------------------ *)
(* Figure 2: percentage of fsync bytes per workload.                   *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  Report.heading ppf "Figure 2: percentage of fsync bytes per workload";
  let fsync_ratio_of stats =
    ( 100.0 *. Stats.fsync_byte_ratio stats,
      Int64.to_float (Stats.user_bytes_written stats) /. 1048576.0 )
  in
  let micro =
    List.map
      (fun (name, make) ->
        let _r, stats, _ =
          Experiment.run_workload ~spec ~threads:2 ~duration:grid_duration
            Fixtures.Pmfs_fs (make ())
        in
        (name, fsync_ratio_of stats))
      (filebench_workloads ())
  in
  let jobs =
    List.map
      (fun (name, job) ->
        let _r, stats, _ = Experiment.run_job ~spec Fixtures.Pmfs_fs job in
        (name, fsync_ratio_of stats))
      [
        ("postmark", Postmark.make ());
        ("tpcc", Tpcc.make ());
        ("kernel-make", Kernel.make_build ());
      ]
  in
  let traces =
    List.map
      (fun trace ->
        let _r, stats, _ = Experiment.run_trace Fixtures.Pmfs_fs trace in
        (Trace.name trace, fsync_ratio_of stats))
      (Trace.all ())
  in
  let rows =
    List.map
      (fun (name, (ratio, mb)) -> [ name; Report.f1 ratio; Report.f1 mb ])
      (micro @ jobs @ traces)
  in
  Report.table ppf ~header:[ "workload"; "fsync bytes %"; "MB written" ] rows;
  Fmt.pf ppf
    "@.Paper: TPC-C > 90%%, varmail/facebook high, LASR = 0%%, \
     fileserver/webproxy/kernel ~ 0%%.@."

(* ------------------------------------------------------------------ *)
(* Figure 6: Buffer Benefit Model accuracy.                            *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  Report.heading ppf "Figure 6: Buffer Benefit Model accuracy";
  let varmail =
    let _r, stats, _ =
      Experiment.run_workload ~spec ~threads:2 ~duration:grid_duration
        Fixtures.Hinfs_fs (Filebench.varmail ())
    in
    ("varmail", 100.0 *. Stats.bbm_accuracy stats, Stats.bbm_predictions stats)
  in
  let tpcc =
    let _r, stats, _ =
      Experiment.run_job ~spec Fixtures.Hinfs_fs (Tpcc.make ())
    in
    ("tpcc", 100.0 *. Stats.bbm_accuracy stats, Stats.bbm_predictions stats)
  in
  let traces =
    List.map
      (fun trace ->
        let _r, stats, _ = Experiment.run_trace Fixtures.Hinfs_fs trace in
        ( Trace.name trace,
          100.0 *. Stats.bbm_accuracy stats,
          Stats.bbm_predictions stats ))
      [ Trace.usr0 (); Trace.usr1 (); Trace.facebook () ]
  in
  let rows =
    List.map
      (fun (name, accuracy, n) -> [ name; Report.f1 accuracy; string_of_int n ])
      ([ varmail; tpcc ] @ traces)
  in
  Report.table ppf ~header:[ "workload"; "accuracy %"; "predictions" ] rows;
  Fmt.pf ppf "@.Paper: accuracy close to 90%% even in the worst case.@."

(* ------------------------------------------------------------------ *)
(* Figure 7: overall filebench throughput, normalised to PMFS.         *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  Report.heading ppf
    "Figure 7: overall throughput (filebench, 4 threads), normalised to PMFS";
  List.iter
    (fun (wname, make) ->
      let rows =
        List.map
          (fun kind ->
            let result, _, _ =
              Experiment.run_workload ~spec ~duration:grid_duration kind
                (make ())
            in
            (Fixtures.name kind, result.Workload.ops_per_sec))
          Fixtures.paper_five
      in
      let normalised = ratio_to_pmfs rows in
      Report.subheading ppf wname;
      Report.table ppf ~header:[ "fs"; "ops/s"; "vs pmfs"; "" ]
        (List.map2
           (fun (fs, ops) (_, ratio) ->
             [
               fs;
               Report.f0 ops;
               Report.f2 ratio;
               Report.bar ratio ~max_value:3.0 ~width:30;
             ])
           rows normalised);
      Fmt.pf ppf "@.")
    (filebench_workloads ());
  Fmt.pf ppf
    "Paper: HiNFS best everywhere (up to +184%% on fileserver); EXT+NVMMBD \
     competitive with PMFS only on webproxy; HiNFS ~ PMFS on webserver and \
     varmail.@."

(* ------------------------------------------------------------------ *)
(* Figure 7b: the nvcache durability tier on an fsync-heavy workload.  *)
(* ------------------------------------------------------------------ *)

(* Fig-7-style cells for the nvcache comparison (DESIGN.md §7): a
   sync-mounted ext4 pays a full bio + journal commit per durable write;
   the nvlog/nvpage tiers absorb the same bios into NVMM and destage in
   the background; HiNFS writes NVMM natively and is the upper bound.
   Varmail is the fsync-heavy workload of the set. *)
let fig7nv () =
  Report.heading ppf
    "Figure 7b: varmail over the nvcache tier (fsync-heavy, 2 threads)";
  let kinds =
    [
      Fixtures.Ext4_sync;
      Fixtures.Ext2_nvlog;
      Fixtures.Ext4_nvlog;
      Fixtures.Ext4_nvpage;
      Fixtures.Hinfs_fs;
    ]
  in
  let rows =
    List.map
      (fun kind ->
        let result, _stats, obs =
          Experiment.run_workload ~obs:`Hist ~spec ~threads:2
            ~duration:grid_duration kind (Filebench.varmail ())
        in
        ( Fixtures.name kind,
          result.Workload.ops_per_sec,
          Obs.hist obs Obs.Op_write,
          Obs.hist obs Obs.Op_fsync ))
      kinds
  in
  let max_ops =
    List.fold_left (fun m (_, ops, _, _) -> Float.max m ops) 1.0 rows
  in
  Report.table ppf
    ~header:
      [ "fs"; "ops/s"; "write p50"; "write p99"; "fsync p99"; "" ]
    (List.map
       (fun (fs, ops, w, f) ->
         [
           fs;
           Report.f0 ops;
           string_of_int w.Hist.p50;
           string_of_int w.Hist.p99;
           string_of_int f.Hist.p99;
           Report.bar ops ~max_value:max_ops ~width:30;
         ])
       rows);
  Fmt.pf ppf
    "@.Every mount here is synchronous, so the durable op is the write \
     itself. The tier absorbs each sync bio as an NVMM append + fence: \
     ext2+nvlog cuts write p50 ~3x against the bare sync mount; ext4 keeps \
     its journal overhead but still gains from absorb + write-around.@."

(* ------------------------------------------------------------------ *)
(* Figure 8: scalability, 1-10 threads.                                *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  Report.heading ppf "Figure 8: throughput for 1-10 threads (ops/s)";
  let thread_points = [ 1; 2; 4; 6; 8; 10 ] in
  List.iter
    (fun (wname, make) ->
      Report.subheading ppf wname;
      let rows =
        List.map
          (fun kind ->
            let cells =
              List.map
                (fun threads ->
                  let result, _, _ =
                    Experiment.run_workload ~spec ~threads
                      ~duration:sweep_duration kind (make ())
                  in
                  Report.f0 result.Workload.ops_per_sec)
                thread_points
            in
            Fixtures.name kind :: cells)
          Fixtures.paper_five
      in
      Report.table ppf
        ~header:("fs" :: List.map (fun t -> Fmt.str "%dthr" t) thread_points)
        rows;
      Fmt.pf ppf "@.")
    (filebench_workloads ());
  Fmt.pf ppf
    "Paper: HiNFS scales best; PMFS/EXT4-DAX saturate on NVMM write \
     bandwidth for fileserver; webserver/varmail track PMFS.@."

(* ------------------------------------------------------------------ *)
(* Figure 9: sensitivity to I/O size (fileserver), incl. HiNFS-NCLFW.  *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  Report.heading ppf
    "Figure 9: fileserver sensitivity to I/O size (a: ops/s, b: NVMM write \
     size)";
  let sizes = [ 64; 512; 1024; 4096; 16384; 65536 ] in
  let kinds = [ Fixtures.Pmfs_fs; Fixtures.Hinfs_nclfw; Fixtures.Hinfs_fs ] in
  let results =
    List.map
      (fun io_size ->
        let make () =
          Filebench.fileserver
            ~params:
              {
                Filebench.default_params with
                Filebench.io_size;
                Filebench.append_size = min io_size 16384;
              }
            ()
        in
        let cells =
          List.map
            (fun kind ->
              let result, stats, _ =
                Experiment.run_workload ~spec ~duration:sweep_duration kind
                  (make ())
              in
              ( result.Workload.ops_per_sec,
                Int64.to_float (Stats.nvmm_bytes_written stats) /. 1048576.0 ))
            kinds
        in
        (io_size, cells))
      sizes
  in
  Report.subheading ppf "(a) throughput, ops/s";
  Report.table ppf
    ~header:("io size" :: List.map Fixtures.name kinds)
    (List.map
       (fun (io, cells) ->
         Fmt.str "%d B" io :: List.map (fun (ops, _) -> Report.f0 ops) cells)
       results);
  Report.subheading ppf "(b) NVMM write size, MB";
  Report.table ppf
    ~header:("io size" :: List.map Fixtures.name kinds)
    (List.map
       (fun (io, cells) ->
         Fmt.str "%d B" io :: List.map (fun (_, mb) -> Report.f1 mb) cells)
       results);
  (* Supplementary panel: the fileserver above streams files sequentially,
     so buffered blocks are fully dirty by writeback time and CLFW's
     granularity has little to bite on. Random sub-block writes over a
     working set larger than the buffer are the paper's motivating case
     ("many small block-unaligned lazy-persistent writes"): evicted blocks
     are sparsely dirty, and NCLFW flushes (and fetches) whole blocks. *)
  Report.subheading ppf
    "(c) random sub-block writes (fio, 64 MB file > 26 MB buffer): NVMM MB \
     written";
  let fio_sizes = [ 64; 256; 1024; 4096 ] in
  let fio_rows =
    List.map
      (fun io_size ->
        let make () =
          Fio.make
            ~params:
              {
                Fio.default_params with
                Fio.io_size;
                Fio.file_size = 64 * 1024 * 1024;
                Fio.read_fraction = 0.0;
              }
            ()
        in
        let cells =
          List.map
            (fun kind ->
              let _result, stats, _ =
                Experiment.run_workload ~spec ~duration:sweep_duration kind
                  (make ())
              in
              Int64.to_float (Stats.nvmm_bytes_written stats) /. 1048576.0)
            [ Fixtures.Hinfs_nclfw; Fixtures.Hinfs_fs ]
        in
        match cells with
        | [ nclfw; clfw ] ->
          [
            Fmt.str "%d B" io_size;
            Report.f1 nclfw;
            Report.f1 clfw;
            Report.f2 (nclfw /. Float.max clfw 0.001);
          ]
        | _ -> assert false)
      fio_sizes
  in
  Report.table ppf
    ~header:[ "io size"; "hinfs-nclfw MB"; "hinfs MB"; "nclfw/clfw" ]
    fio_rows;
  Fmt.pf ppf
    "@.Paper: CLFW cuts NVMM write size sharply for sub-block I/O (~30%% \
     ops/s gain); the gap closes at and above 4 KB; HiNFS's lead over PMFS \
     grows with I/O size.@."

(* ------------------------------------------------------------------ *)
(* Figure 10: sensitivity to the DRAM buffer size.                     *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  Report.heading ppf
    "Figure 10: throughput vs DRAM buffer size (fraction of workload size)";
  let ratios = [ 0.1; 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  let cases =
    [
      ("fileserver", (fun () -> Filebench.fileserver ()), 64 * 1024 * 1024);
      ("webproxy", (fun () -> Filebench.webproxy ()), 16 * 1024 * 1024);
    ]
  in
  List.iter
    (fun (wname, make, workload_size) ->
      Report.subheading ppf wname;
      let reference kind =
        let result, _, _ =
          Experiment.run_workload ~spec ~duration:sweep_duration kind (make ())
        in
        result.Workload.ops_per_sec
      in
      let pmfs = reference Fixtures.Pmfs_fs in
      let ext2 = reference Fixtures.Ext2_nvmmbd in
      let rows =
        List.map
          (fun ratio ->
            let buffer_bytes =
              max (64 * 4096)
                (int_of_float (ratio *. float_of_int workload_size))
            in
            let spec = { spec with Experiment.buffer_bytes } in
            let result, _, _ =
              Experiment.run_workload ~spec ~duration:sweep_duration
                Fixtures.Hinfs_fs (make ())
            in
            [
              Report.f1 ratio;
              Report.f0 result.Workload.ops_per_sec;
              Report.f2 (result.Workload.ops_per_sec /. pmfs);
            ])
          ratios
      in
      Report.table ppf
        ~header:[ "buffer/workload"; "hinfs ops/s"; "vs pmfs" ]
        rows;
      Fmt.pf ppf "reference: pmfs %s ops/s, ext2+nvmmbd %s ops/s@.@."
        (Report.f0 pmfs) (Report.f0 ext2))
    cases;
  Fmt.pf ppf
    "Paper: fileserver improves steadily with buffer size; webproxy is \
     insensitive (strong locality + short-lived files).@."

(* ------------------------------------------------------------------ *)
(* Figure 11: sensitivity to NVMM write latency (single thread).       *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  Report.heading ppf
    "Figure 11: throughput vs NVMM write latency (1 thread, ops/s)";
  let latencies = [ 50; 100; 200; 400; 800 ] in
  let kinds = [ Fixtures.Pmfs_fs; Fixtures.Ext2_nvmmbd; Fixtures.Hinfs_fs ] in
  List.iter
    (fun (wname, make) ->
      Report.subheading ppf wname;
      let rows =
        List.map
          (fun kind ->
            let cells =
              List.map
                (fun nvmm_write_ns ->
                  let spec = { spec with Experiment.nvmm_write_ns } in
                  let result, _, _ =
                    Experiment.run_workload ~spec ~threads:1
                      ~duration:sweep_duration kind (make ())
                  in
                  Report.f0 result.Workload.ops_per_sec)
                latencies
            in
            Fixtures.name kind :: cells)
          kinds
      in
      Report.table ppf
        ~header:("fs" :: List.map (fun l -> Fmt.str "%dns" l) latencies)
        rows;
      Fmt.pf ppf "@.")
    [
      ("fileserver", fun () -> Filebench.fileserver ());
      ("webproxy", fun () -> Filebench.webproxy ());
    ];
  Fmt.pf ppf
    "Paper: HiNFS's advantage grows with latency (up to ~6x over PMFS on \
     webproxy at 800 ns) and it is never worse, even at 50 ns.@."

(* ------------------------------------------------------------------ *)
(* Figure 12: trace replay, time breakdown by op class.                *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  Report.heading ppf
    "Figure 12: trace replay time (normalised to PMFS; \
     read/write/unlink/fsync breakdown in ms)";
  let kinds = Fixtures.paper_five @ [ Fixtures.Hinfs_wb ] in
  List.iter
    (fun trace ->
      Report.subheading ppf (Trace.name trace);
      let results =
        List.map
          (fun kind ->
            let r, _, _ = Experiment.run_trace kind trace in
            (kind, r))
          kinds
      in
      let pmfs_total =
        match List.find_opt (fun (k, _) -> k = Fixtures.Pmfs_fs) results with
        | Some (_, r) -> Int64.to_float r.Trace.r_elapsed_ns
        | None -> 1.0
      in
      Report.table ppf
        ~header:
          [ "fs"; "total ms"; "vs pmfs"; "read"; "write"; "unlink"; "fsync" ]
        (List.map
           (fun (kind, r) ->
             [
               Fixtures.name kind;
               Report.ms r.Trace.r_elapsed_ns;
               Report.f2 (Int64.to_float r.Trace.r_elapsed_ns /. pmfs_total);
               Report.ms r.Trace.r_read_ns;
               Report.ms r.Trace.r_write_ns;
               Report.ms r.Trace.r_unlink_ns;
               Report.ms r.Trace.r_fsync_ns;
             ])
           results);
      Fmt.pf ppf "@.")
    (Trace.all ());
  Fmt.pf ppf
    "Paper: HiNFS cuts execution time ~35-38%% vs PMFS on Usr0/Usr1/LASR \
     (write time drops most) and matches PMFS on Facebook; HiNFS-WB is \
     worse than HiNFS on sync-heavy traces. See EXPERIMENTS.md for where \
     our additive-latency model deviates on the WB ablation.@."

(* ------------------------------------------------------------------ *)
(* Figure 13: macro benchmarks, elapsed time normalised to PMFS.       *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  Report.heading ppf
    "Figure 13: macro benchmark elapsed time (normalised to PMFS)";
  let kinds = Fixtures.paper_five @ [ Fixtures.Hinfs_wb ] in
  List.iter
    (fun (jname, job) ->
      Report.subheading ppf jname;
      let results =
        List.map
          (fun kind ->
            let r, _, _ = Experiment.run_job ~spec kind job in
            (kind, r))
          kinds
      in
      let pmfs_total =
        match List.find_opt (fun (k, _) -> k = Fixtures.Pmfs_fs) results with
        | Some (_, r) -> Int64.to_float r.Workload.jr_elapsed_ns
        | None -> 1.0
      in
      Report.table ppf ~header:[ "fs"; "elapsed ms"; "vs pmfs"; "" ]
        (List.map
           (fun (kind, r) ->
             let ratio =
               Int64.to_float r.Workload.jr_elapsed_ns /. pmfs_total
             in
             [
               Fixtures.name kind;
               Report.ms r.Workload.jr_elapsed_ns;
               Report.f2 ratio;
               Report.bar ratio ~max_value:4.0 ~width:30;
             ])
           results);
      Fmt.pf ppf "@.")
    [
      ("postmark", Postmark.make ());
      ("tpcc", Tpcc.make ());
      ("kernel-grep", Kernel.grep ());
      ("kernel-make", Kernel.make_build ());
    ];
  Fmt.pf ppf
    "Paper: HiNFS cuts Postmark/Kernel-Make time by ~60/64%%; TPC-C and \
     Kernel-Grep are level with PMFS; EXT2 beats EXT4 (journal overhead).@."

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3.                                                     *)
(* ------------------------------------------------------------------ *)

let tab2 () =
  Report.heading ppf "Table 2: emulated platform configuration";
  let config = Experiment.config_of spec in
  Fmt.pf ppf "%a@." Config.pp config;
  Fmt.pf ppf
    "HiNFS buffer %d MB; EXT page cache %d pages; default %d worker \
     threads; measurement window %.0f ms (virtual).@."
    (spec.Experiment.buffer_bytes / 1048576)
    spec.Experiment.cache_pages spec.Experiment.threads
    (Int64.to_float spec.Experiment.duration_ns /. 1e6)

let tab3 () =
  Report.heading ppf "Table 3: file systems under comparison";
  Report.table ppf ~header:[ "name"; "description" ]
    (List.map
       (fun kind -> [ Fixtures.name kind; Fixtures.description kind ])
       (Fixtures.paper_five @ [ Fixtures.Hinfs_nclfw; Fixtures.Hinfs_wb ]))

(* ------------------------------------------------------------------ *)
(* Serve: request-level fan-in through lib/server, 64 -> 4096 clients. *)
(* ------------------------------------------------------------------ *)

(* One cell: a simulated client fleet (zipf-hot reads, mixed
   stable/unstable writes with COMMITs, open/close churn) against the
   serving layer over HiNFS with [shards] hot-state shards. Per-fleet
   request counts shrink as the fleet grows so the grid stays fast, and
   the server's worker pool scales with the fleet the way a real
   server's thread pool would. Each cell's seed derives from the
   (clients, shards) pair, so the artifact stays byte-stable run to
   run; new cell names are unshared, so bench_compare does not gate
   them against pre-serve baselines. *)
let serve_points =
  [
    (64, 1); (64, 8); (256, 1); (256, 8); (1024, 1); (1024, 8); (4096, 1);
    (4096, 8);
  ]

let serve_cell_name ~clients ~shards =
  Fmt.str "serve-c%04d-s%d" clients shards

let serve_cell ~clients ~shards =
  let cell_seed =
    Int64.add spec.Experiment.seed
      (Int64.of_int ((clients * 131) + (shards * 0x9E3779)))
  in
  let serve_spec =
    { spec with Experiment.shards; Experiment.seed = cell_seed }
  in
  let cfg =
    {
      Clients.default with
      Clients.clients;
      ops_per_client = max 6 (3072 / clients);
      shards;
      seed = cell_seed;
    }
  in
  let workers = min 256 (max 8 (clients / 8)) in
  let (total, elapsed_ns), _stats, obs =
    Experiment.with_env ~obs:`Hist serve_spec Fixtures.Hinfs_fs (fun env ->
        let srv =
          Server.create ~workers ~cache_cap:(2 * workers)
            env.Fixtures.engine env.Fixtures.handle
        in
        Server.start srv;
        let t0 = Hinfs_sim.Proc.now () in
        let total = Clients.run env.Fixtures.engine srv cfg in
        let t1 = Hinfs_sim.Proc.now () in
        (* Close the cached opens before teardown unmounts the tree. *)
        Ofcache.drop_all (Server.cache srv);
        Server.stop srv;
        (total, Int64.sub t1 t0))
  in
  (total, elapsed_ns, obs)

let serve () =
  Report.heading ppf
    "Serve: client fan-in through the serving layer (req/s, per-class \
     tails in ns)";
  let rows =
    List.map
      (fun (clients, shards) ->
        let total, elapsed_ns, obs = serve_cell ~clients ~shards in
        let secs = Int64.to_float elapsed_ns /. 1e9 in
        let rps = if secs > 0.0 then float_of_int total /. secs else 0.0 in
        let rd = Obs.hist obs Obs.Req_read in
        let wr = Obs.hist obs Obs.Req_write in
        let cm = Obs.hist obs Obs.Req_commit in
        let q = Obs.hist obs Obs.Srv_queue in
        [
          string_of_int clients;
          string_of_int shards;
          string_of_int total;
          Report.f0 rps;
          string_of_int rd.Hist.p99;
          string_of_int wr.Hist.p99;
          string_of_int cm.Hist.p999;
          string_of_int q.Hist.p99;
        ])
      serve_points
  in
  Report.table ppf
    ~header:
      [
        "clients"; "shards"; "reqs"; "req/s"; "read p99"; "write p99";
        "commit p999"; "queue p99";
      ]
    rows;
  Fmt.pf ppf
    "@.Request latency is dominated by the queue wait once the fleet \
     outgrows the worker pool; sharding the hot state moves the knee \
     right until the NVMM bandwidth Resource saturates. srv.* phase \
     rows in BENCH_HINFS.json break each request into queue / decode / \
     dispatch / encode / flush.@."

(* ------------------------------------------------------------------ *)
(* Baseline: machine-readable perf summary (BENCH_HINFS.json).         *)
(* ------------------------------------------------------------------ *)

(* Short obs-enabled runs over the two headline file systems. Everything
   in the artifact derives from the virtual clock, so two invocations with
   the same seed write byte-identical files — scripts/bench_check.sh diffs
   a pair of runs to enforce that. Set BENCH_HINFS_OUT to redirect the
   output path. *)
let baseline () =
  Report.heading ppf
    "Baseline: machine-readable latency/throughput summary (BENCH_HINFS.json)";
  let duration = 50_000_000L in
  let kinds = [ Fixtures.Hinfs_fs; Fixtures.Pmfs_fs ] in
  let rate_cells =
    [
      ("fileserver", fun () -> Filebench.fileserver ());
      ("varmail", fun () -> Filebench.varmail ());
      ("fio", fun () -> Fio.make ());
    ]
  in
  let experiments =
    List.concat_map
      (fun kind ->
        let fs = Fixtures.name kind in
        let rates =
          List.map
            (fun (wname, make) ->
              let result, _stats, obs =
                Experiment.run_workload ~obs:`Hist ~spec ~threads:2 ~duration
                  kind (make ())
              in
              Report.subheading ppf (Fmt.str "%s / %s" wname fs);
              Report.latency ppf obs;
              Report.gauges ppf obs;
              Fmt.pf ppf "@.";
              Profile.experiment_json ~name:wname ~fs
                ~ops:result.Workload.ops
                ~elapsed_ns:result.Workload.elapsed_ns obs)
            rate_cells
        in
        let jobs =
          List.map
            (fun (jname, job) ->
              let r, _stats, obs =
                Experiment.run_job ~obs:`Hist ~spec kind job
              in
              Report.subheading ppf (Fmt.str "%s / %s" jname fs);
              Report.latency ppf obs;
              Report.gauges ppf obs;
              Fmt.pf ppf "@.";
              Profile.experiment_json ~name:jname ~fs
                ~ops:r.Workload.jr_ops ~elapsed_ns:r.Workload.jr_elapsed_ns
                obs)
            [ ("postmark", Postmark.make ()) ]
        in
        rates @ jobs)
      kinds
  in
  (* Nvcache comparison cells (Fig. 7b): the same fsync-heavy varmail run
     over a bare sync-mounted ext4 and both cache-tier designs, so the
     committed artifact records fsync/write latency with and without the
     tier. *)
  let nv_experiments =
    List.map
      (fun kind ->
        let fs = Fixtures.name kind in
        let result, _stats, obs =
          Experiment.run_workload ~obs:`Hist ~spec ~threads:2 ~duration kind
            (Filebench.varmail ())
        in
        Report.subheading ppf (Fmt.str "varmail / %s" fs);
        Report.latency ppf obs;
        Report.gauges ppf obs;
        Fmt.pf ppf "@.";
        Profile.experiment_json ~name:"varmail" ~fs ~ops:result.Workload.ops
          ~elapsed_ns:result.Workload.elapsed_ns obs)
      [
        Fixtures.Ext4_sync;
        Fixtures.Ext2_nvlog;
        Fixtures.Ext4_nvlog;
        Fixtures.Ext4_nvpage;
      ]
  in
  (* Snapshot-cost cell: the same fileserver run over the CoW substrate,
     where every op commits through a refcount fixpoint plus a fenced
     root-descriptor swap, next to the journal-mode pmfs fileserver cell
     above — the committed artifact records what CoW commit costs on a
     create/append-heavy workload. *)
  let cow_experiments =
    List.map
      (fun kind ->
        let fs = Fixtures.name kind in
        let result, _stats, obs =
          Experiment.run_workload ~obs:`Hist ~spec ~threads:2 ~duration kind
            (Filebench.fileserver ())
        in
        Report.subheading ppf (Fmt.str "fileserver / %s" fs);
        Report.latency ppf obs;
        Report.gauges ppf obs;
        Fmt.pf ppf "@.";
        Profile.experiment_json ~name:"fileserver" ~fs
          ~ops:result.Workload.ops ~elapsed_ns:result.Workload.elapsed_ns obs)
      [ Fixtures.Cow_fs ]
  in
  (* Shard scalability sweep (1 -> 512 simulated processes): each process
     owns one file in one of [shards] directories; directories are placed
     round-robin across shards at mkfs, so the processes spread over every
     shard's buffer pool, journal region, and allocator ranges. The op mix
     is small buffered writes with periodic fsync (journal commits) and an
     occasional create+unlink (allocator churn) — the metadata-heavy shape
     whose single-shard bottleneck is the journal tail lock and the shared
     pool, not data bandwidth. Ops/sec should rise with the shard count
     until the NVMM bandwidth Resource is the bottleneck and the curve
     flattens. Each cell's RNG streams derive from the run seed, the shard
     count, and the worker's thread id, so the artifact stays byte-stable
     run to run. New cell names: bench_compare treats them as unshared
     (not gated) against pre-shard baselines. *)
  let sweep_workload ~procs ~dirs =
    let file_span = 64 * 1024 in
    let io = 4096 in
    let fds = Array.make procs (-1) in
    {
      Workload.name = Fmt.str "shardmix-p%d" procs;
      setup =
        (fun h _rng ->
          for d = 0 to dirs - 1 do
            h.Hinfs_vfs.Vfs.mkdir (Fmt.str "/s%d" d)
          done;
          let chunk = Bytes.make file_span 's' in
          for i = 0 to procs - 1 do
            let path = Fmt.str "/s%d/f%d" (i mod dirs) i in
            let fd = h.Hinfs_vfs.Vfs.open_ path Hinfs_vfs.Types.creat in
            ignore (h.Hinfs_vfs.Vfs.write fd chunk file_span);
            h.Hinfs_vfs.Vfs.fsync fd;
            fds.(i) <- fd
          done);
      worker =
        (fun ctx ->
          let h = ctx.Workload.handle in
          let rng = ctx.Workload.rng in
          let i = ctx.Workload.thread_id in
          let fd = fds.(i) in
          let roll = Hinfs_sim.Rng.int rng 32 in
          if roll = 0 then begin
            (* Allocator churn in the process's own directory/shard. *)
            let scratch = Fmt.str "/s%d/tmp%d" (i mod dirs) i in
            let sfd = h.Hinfs_vfs.Vfs.open_ scratch Hinfs_vfs.Types.creat in
            ignore (h.Hinfs_vfs.Vfs.write sfd (Bytes.make io 't') io);
            h.Hinfs_vfs.Vfs.close sfd;
            h.Hinfs_vfs.Vfs.unlink scratch;
            1
          end
          else begin
            let off = Hinfs_sim.Rng.int rng (file_span / io) * io in
            ignore (h.Hinfs_vfs.Vfs.pwrite fd ~off (Bytes.make io 'w') io);
            if roll land 7 = 1 then h.Hinfs_vfs.Vfs.fsync fd;
            1
          end);
    }
  in
  let sweep_cells =
    List.map
      (fun p ->
        let shards = min p 64 in
        let sweep_spec =
          {
            spec with
            Experiment.threads = p;
            Experiment.shards;
            Experiment.seed =
              Int64.add spec.Experiment.seed
                (Int64.of_int (shards * 0x9E3779));
          }
        in
        let result, stats, obs =
          Experiment.run_workload ~obs:`Hist ~spec:sweep_spec ~threads:p
            ~duration:10_000_000L Fixtures.Hinfs_fs
            (sweep_workload ~procs:p ~dirs:shards)
        in
        let secs = Int64.to_float result.Workload.elapsed_ns /. 1e9 in
        let opsec = float_of_int result.Workload.ops /. secs in
        let mbps =
          Int64.to_float (Stats.nvmm_bytes_written stats) /. secs /. 1e6
        in
        Fmt.pf ppf
          "shard sweep: %4d procs / %2d shards: %9.0f ops/s, %7.1f MB/s \
           NVMM write@."
          p shards opsec mbps;
        Profile.experiment_json
          ~name:(Fmt.str "shard-sweep-p%03d" p)
          ~fs:"hinfs" ~ops:result.Workload.ops
          ~elapsed_ns:result.Workload.elapsed_ns obs)
      [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ]
  in
  (* Client-sweep cells (the serving layer): same cells as the [serve]
     experiment, recorded into the artifact with req.* classes in
     latency_ns (gated by bench_compare) and srv.* phases in phases_ns. *)
  let serve_cells =
    List.map
      (fun (clients, shards) ->
        let total, elapsed_ns, obs = serve_cell ~clients ~shards in
        let secs = Int64.to_float elapsed_ns /. 1e9 in
        Fmt.pf ppf
          "serve sweep: %4d clients / %d shards: %6d reqs, %9.0f req/s@."
          clients shards total
          (if secs > 0.0 then float_of_int total /. secs else 0.0);
        Profile.experiment_json
          ~name:(serve_cell_name ~clients ~shards)
          ~fs:"hinfs" ~ops:total ~elapsed_ns obs)
      serve_points
  in
  let experiments =
    experiments @ nv_experiments @ cow_experiments @ sweep_cells
    @ serve_cells
  in
  let config =
    [
      ("seed", Ojson.Int (Int64.to_int spec.Experiment.seed));
      ("threads", Ojson.Int 2);
      ("duration_ns", Ojson.Int (Int64.to_int duration));
      ("nvmm_write_ns", Ojson.Int spec.Experiment.nvmm_write_ns);
      ("buffer_bytes", Ojson.Int spec.Experiment.buffer_bytes);
      ("shards", Ojson.Int spec.Experiment.shards);
    ]
  in
  let json = Profile.bench_json ~config experiments in
  let path =
    match Sys.getenv_opt "BENCH_HINFS_OUT" with
    | Some p -> p
    | None -> "BENCH_HINFS.json"
  in
  Profile.write_file path json;
  Fmt.pf ppf "wrote %s (%d experiments)@." path (List.length experiments)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the core data structures (wall clock).  *)
(* ------------------------------------------------------------------ *)

(* The host cost of one timed device store and load, over a 1 MB region
   of mixed bytes (so the medium keeps a private line per line), and of
   one lowest-free allocation after freeing a random block of a nearly
   full allocator (the scan runs from the last allocation to the freed
   block). The device rows must run inside a simulation process on
   [engine]: each includes the scheduling of its virtual delay. *)
let device_micro engine =
  let open Bechamel in
  let module Device = Hinfs_nvmm.Device in
  let module Allocator = Hinfs_nvmm.Allocator in
  let config = { Config.default with Config.nvmm_size = 16 * 1024 * 1024 } in
  let d = Device.create engine (Stats.create ()) config in
  let region = 1024 * 1024 and ls = config.Config.cacheline_size in
  let ps = config.Config.block_size in
  let mixed = Bytes.init region (fun i -> Char.chr (i * 7 land 0xff)) in
  Device.poke d ~addr:0 ~src:mixed ~off:0 ~len:region;
  let next = ref 0 in
  let rotate step =
    next := (!next + step) mod region;
    !next
  in
  let page = Bytes.create ps in
  let write_line =
    Test.make ~name:"device.write_nt line"
      (Staged.stage (fun () ->
           let addr = rotate ls in
           Device.write_nt d ~cat:Stats.Other ~addr ~src:mixed ~off:addr
             ~len:ls))
  in
  let read_page =
    Test.make ~name:"device.read page"
      (Staged.stage (fun () ->
           Device.read d ~cat:Stats.Other ~addr:(rotate ps / ps * ps) ~len:ps
             ~into:page ~off:0))
  in
  let blocks = 65536 in
  let a =
    Allocator.create ~policy:Allocator.Lowest_free ~first_block:0
      ~count:blocks
  in
  for _ = 1 to blocks - 1024 do
    ignore (Allocator.alloc a)
  done;
  let rng = Random.State.make [| 7 |] in
  let alloc =
    Test.make ~name:"allocator.alloc churned"
      (Staged.stage (fun () ->
           Allocator.free a (Random.State.int rng (blocks - 1024));
           ignore (Allocator.alloc a)))
  in
  [ write_line; read_page; alloc ]

let micro () =
  Report.heading ppf "Microbenchmarks (Bechamel, real time per run)";
  let open Bechamel in
  let clbitmap_runs =
    let m =
      Hinfs.Clbitmap.add_range
        (Hinfs.Clbitmap.add_range Hinfs.Clbitmap.empty ~first:3 ~last:17)
        ~first:40 ~last:55
    in
    Test.make ~name:"clbitmap.iter_runs"
      (Staged.stage (fun () ->
           Hinfs.Clbitmap.iter_runs m ~nlines:64
             (fun ~first:_ ~count:_ ~set:_ -> ())))
  in
  let zipf_gen = Hinfs_sim.Zipf.create ~n:100_000 ~theta:0.9 in
  let zipf_rng = Hinfs_sim.Rng.create ~seed:7L in
  let zipf_sample =
    Test.make ~name:"zipf.sample"
      (Staged.stage (fun () ->
           ignore (Hinfs_sim.Zipf.sample zipf_gen zipf_rng)))
  in
  let engine = Hinfs_sim.Engine.create () in
  let tests = [ clbitmap_runs; zipf_sample ] @ device_micro engine in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw = ref None in
  Hinfs_sim.Engine.spawn engine ~name:"micro" (fun () ->
      raw :=
        Some
          (Benchmark.all cfg instances
             (Test.make_grouped ~name:"structures" ~fmt:"%s %s" tests)));
  Hinfs_sim.Engine.run engine;
  let raw = Option.get !raw in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ time_per_run ] -> rows := (name, time_per_run) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, t) -> Fmt.pf ppf "%-32s %10.1f ns/run@." name t)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("tab2", tab2);
    ("tab3", tab3);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig7nv", fig7nv);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("serve", serve);
    ("baseline", baseline);
    ("micro", micro);
  ]

let () =
  let requested =
    let names =
      List.filter
        (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--"))
        (List.tl (Array.to_list Sys.argv))
    in
    match names with [] -> List.map fst experiments | names -> names
  in
  let t0 = Sys.time () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let start = Sys.time () in
        f ();
        Fmt.pf ppf "[%s done in %.1f s cpu]@." name (Sys.time () -. start)
      | None ->
        Fmt.epr "unknown experiment %S (available: %s)@." name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested;
  Fmt.pf ppf "@.All requested experiments completed (%.1f s cpu).@."
    (Sys.time () -. t0)
