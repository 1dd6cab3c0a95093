(* The repository benchmark: HiNFS end to end and layer by layer.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--threads T] [--warmup-ms M] [--window-ms M] [--max-reps R]

   Workloads: fileserver and varmail (filebench personalities over a
   1-shard HiNFS, 4 simulated threads), serve (lib/server over an 8-shard
   HiNFS under open-loop Poisson load from 256 sessions). A traced varmail
   run also enumerates crash images (Crashmc over Scenarios.all at the
   crashmc_smoke parameters). Every simulated run uses
   Experiment.default_spec: 384 MB of NVMM at 200 ns and 1 GB/s, a 26 MB
   DRAM buffer, and the default Hconfig writeback policy.

   A run repeats set-up plus measurement while [--seconds] allows.
   Virtual-clock metrics come from the first repetition and must repeat
   exactly in every later one; host-clock metrics are medians over the
   repetitions. With --trace 1 every repetition is paired with a traced one
   (Obs sink installed, boundary spans kept in memory and written to
   perfbench_out/ at exit), whose virtual-clock metrics must equal the
   untraced ones. The last line of standard output is the JSON result;
   perfbench/NOTES.md describes every metric. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Resource = Hinfs_sim.Resource
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno
module Pmfs = Hinfs_pmfs.Pmfs
module Fsck = Hinfs_fsck.Fsck
module Workload = Hinfs_workloads.Workload
module Filebench = Hinfs_workloads.Filebench
module Fixtures = Hinfs_harness.Fixtures
module Experiment = Hinfs_harness.Experiment
module Obs = Hinfs_obs.Obs
module Hist = Hinfs_obs.Hist
module Server = Hinfs_server.Server
module Clients = Hinfs_server.Clients
module Ofcache = Hinfs_server.Ofcache
module Fhandle = Hinfs_server.Fhandle
module Crashmc = Hinfs_crashmc.Crashmc
module Scenarios = Hinfs_crashmc.Scenarios
module Samples = Probe.Samples
module Spans = Probe.Spans

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let threads = ref 4
let warmup_ms = ref (-1)
let window_ms = ref (-1)
let max_reps = ref 20
let out_dir = "perfbench_out"
let spec = Experiment.default_spec
let config = Experiment.config_of spec
let ms n = Int64.mul (Int64.of_int n) 1_000_000L
let f = float_of_int
let ratio a b = if b > 0.0 then a /. b else 0.0
let secs_since t0 = Int64.to_float (Int64.sub (Probe.host_ns ()) t0) /. 1e9

(* Host cost is process CPU time: on a shared machine it leaves out the
   time the process waits for a CPU. *)
let cpu_s () = Sys.time ()

(* --- metric names, units and directions --- *)

let end_to_end =
  [
    ("ops_per_s", "1/s", "higher");
    ("lat_mean_ns", "vns", "lower");
    ("lat_p99_ns", "vns", "lower");
    ("lat_p999_ns", "vns", "lower");
    ("sync_p50_ns", "vns", "lower");
    ("sync_p99_ns", "vns", "lower");
    ("nvmm_write_amp", "B/B", "lower");
    ("setup_s", "s", "lower");
    ("peak_rss_mb", "MB", "lower");
  ]

let per_layer =
  List.concat_map
    (fun c ->
      let n = "vfs." ^ Probe.cls_name c in
      [
        (n ^ ".calls", "count", "higher");
        (n ^ ".p50_ns", "vns", "lower");
        (n ^ ".p99_ns", "vns", "lower");
      ])
    Probe.measured
  @ [
      ("vfs.errors", "count", "lower");
      ("vfs.errors.enoent", "count", "lower");
      ("vfs.errors.einval", "count", "lower");
      ("vfs.errors.other", "count", "lower");
      ("vfs.wait_share", "ratio", "lower");
      ("vfs.host_ns_per_call", "ns", "lower");
      ("server.read.p99_ns", "vns", "lower");
      ("server.write.p99_ns", "vns", "lower");
      ("server.commit.p99_ns", "vns", "lower");
      ("server.getattr.p99_ns", "vns", "lower");
      ("server.lookup.p99_ns", "vns", "lower");
      ("server.self_ns_per_req", "vns", "lower");
      ("server.queue_depth_max", "count", "lower");
      ("server.ofcache_hit_ratio", "ratio", "higher");
      ("server.ofcache_evictions", "count", "lower");
      ("server.err_replies", "count", "lower");
      ("server.expired_replies", "count", "lower");
      ("server.estale", "count", "lower");
      ("server.vfs_calls_per_req", "ratio", "lower");
      ("server.unattributed_share", "ratio", "lower");
      ("serve.slo_rate_rps", "1/s", "higher");
      ("core.write_hit_ratio", "ratio", "higher");
      ("core.read_hit_ratio", "ratio", "higher");
      ("core.evictions_per_kop", "1/kop", "lower");
      ("core.dead_drops_per_kop", "1/kop", "higher");
      ("core.coalesced_lines_per_op", "1/op", "higher");
      ("core.writeback_stalls", "count", "lower");
      ("core.eager_share", "ratio", "lower");
      ("core.bbm_accuracy", "ratio", "higher");
      ("core.writeback_ns_per_op", "vns/op", "lower");
      ("core.fetch_ns_per_op", "vns/op", "lower");
      ("journal.time_share", "ratio", "lower");
      ("journal.mfence_per_op", "1/op", "lower");
      ("journal.clflush_per_op", "1/op", "lower");
      ("journal.commit_p99_ns", "vns", "lower");
      ("journal.free_slots_min", "count", "higher");
      ("journal.epoch_commits", "count", "lower");
      ("pmfs.other_time_share", "ratio", "lower");
      ("nvmm.bg_bytes_per_op", "B/op", "lower");
      ("nvmm.fg_bytes_per_op", "B/op", "lower");
      ("nvmm.read_bytes_per_op", "B/op", "lower");
      ("nvmm.clflush_per_op", "1/op", "lower");
      ("nvmm.clflush_useful_ratio", "ratio", "higher");
      ("nvmm.mfence_per_op", "1/op", "lower");
      ("nvmm.write_access_share", "ratio", "lower");
      ("nvmm.slot_waits_per_kop", "1/kop", "lower");
      ("nvmm.slot_queue_peak", "count", "lower");
      ("nvmm.slot_wait_ns_per_op", "vns/op", "lower");
      ("nvmm.flush_ns_per_op", "vns/op", "lower");
      ("nvmm.fence_ns_per_op", "vns/op", "lower");
      ("sim.host_ns_per_op", "ns", "lower");
      ("sim.alloc_bytes_per_op", "B/op", "lower");
      ("sim.major_gcs", "count", "lower");
      ("sim.context_switches_per_op", "1/op", "lower");
      ("gen.lag_max_ns", "vns", "lower");
      ("gen.achieved_over_offered", "ratio", "higher");
      ("trace.host_overhead_ratio", "ratio", "lower");
      ("fail_ratio", "ratio", "lower");
      ("lat.p50_ns", "vns", "lower");
      ("lat.samples", "count", "higher");
      ("sync.samples", "count", "higher");
      ("crashmc.images", "count", "higher");
      ("crashmc.recovery_images", "count", "higher");
      ("crashmc.states", "count", "higher");
      ("crashmc.host_ms_per_image", "ms", "lower");
      ("crashmc.slowest_scenario_s", "s", "lower");
    ]

(* --- one repetition --- *)

type rep = {
  virt : (string * float) list;
      (** virtual-clock metrics, exact for a seed; a traced repetition adds
          the phases read from the Obs sink *)
  setup_s : float;  (** host CPU time from engine creation to the measured part *)
  measure_ns : float;  (** host CPU time of the measured part *)
  measured_ops : int;  (** ops simulated in that time *)
  calls_per_op : float;  (** vfs calls per op *)
  alloc_per_op : float;
  major_gcs : float;
  attempted : int;
  failed : int;
  notes : string list;  (** failed checks, one line each *)
  info : string list;
  spans : Spans.t;
}

(* Counters that only grow, read at both ends of the measured window. *)
type marks = {
  bw_waits : int;
  epoch : int;
  alloc : float;
  majors : int;
  host : float;  (** process CPU seconds *)
}

let gauge (env : Fixtures.env) name =
  match List.assoc_opt name env.gauges with Some g -> g () | None -> 0

let mark (env : Fixtures.env) =
  {
    bw_waits = Resource.total_waits (Device.bandwidth env.device);
    epoch = gauge env "epoch.commits";
    alloc = Gc.allocated_bytes ();
    majors = (Gc.quick_stat ()).Gc.major_collections;
    host = cpu_s ();
  }

(* Layer counters of the window; [Stats] was reset when it opened. *)
let window_metrics (env : Fixtures.env) obs (probe : Probe.t) m0 m1 ~ops =
  let st = env.stats in
  let per_op x = ratio x (f ops) in
  let time c = Int64.to_float (Stats.time st c) in
  let charged = Int64.to_float (Stats.total_time st) in
  let written = Int64.to_float (Stats.nvmm_bytes_written st) in
  let bg = Int64.to_float (Stats.nvmm_bytes_written_bg st) in
  let hits = f (Stats.buffer_write_hits st) in
  let misses = f (Stats.buffer_write_misses st) in
  let rhits = f (Stats.buffer_read_hits st) in
  let rmisses = f (Stats.buffer_read_misses st) in
  let eager = f (Stats.eager_writes st) and lazy_ = f (Stats.lazy_writes st) in
  let issued = f (Stats.total_clflush_issued st) in
  let bw = Device.bandwidth env.device in
  [
    ("nvmm_write_amp", ratio written (Int64.to_float (Stats.user_bytes_written st)));
    ("vfs.wait_share", 1.0 -. ratio charged (f probe.vfs_ns));
    ("core.write_hit_ratio", ratio hits (hits +. misses));
    ("core.read_hit_ratio", ratio rhits (rhits +. rmisses));
    ("core.evictions_per_kop", 1000.0 *. per_op (f (Stats.evictions st)));
    ("core.dead_drops_per_kop", 1000.0 *. per_op (f (Stats.dead_block_drops st)));
    ( "core.coalesced_lines_per_op",
      per_op (Int64.to_float (Stats.coalesced_cacheline_writes st)) );
    ("core.writeback_stalls", f (Stats.writeback_stalls st));
    ("core.eager_share", ratio eager (eager +. lazy_));
    ( "core.bbm_accuracy",
      if Stats.bbm_predictions st = 0 then 0.0 else Stats.bbm_accuracy st );
    ("journal.time_share", ratio (time Stats.Journal) charged);
    ("journal.mfence_per_op", per_op (f (Stats.mfences st Stats.Journal)));
    ("journal.clflush_per_op", per_op (f (Stats.clflush_issued st Stats.Journal)));
    ("journal.epoch_commits", f (m1.epoch - m0.epoch));
    ("pmfs.other_time_share", ratio (time Stats.Other) charged);
    ("nvmm.bg_bytes_per_op", per_op bg);
    ("nvmm.fg_bytes_per_op", per_op (written -. bg));
    ("nvmm.read_bytes_per_op", per_op (Int64.to_float (Stats.nvmm_bytes_read st)));
    ("nvmm.clflush_per_op", per_op issued);
    ("nvmm.clflush_useful_ratio", ratio (f (Stats.total_clflush_dirty st)) issued);
    ("nvmm.mfence_per_op", per_op (f (Stats.total_mfences st)));
    ("nvmm.write_access_share", ratio (time Stats.Write_access) charged);
    ("nvmm.slot_waits_per_kop", 1000.0 *. per_op (f (m1.bw_waits - m0.bw_waits)));
    ("nvmm.slot_queue_peak", f (Resource.peak_queue bw));
  ]
  @
  match obs with
  | None -> []
  | Some o ->
    let total k =
      let s = Obs.hist o k in
      s.Hist.mean *. f s.Hist.count
    in
    let free_min =
      List.fold_left
        (fun acc (name, (s : Hist.summary)) ->
          if
            name = "journal.free_slots"
            || String.ends_with ~suffix:".journal_free_slots" name
          then min acc s.min
          else acc)
        max_int (Obs.counter_summaries o)
    in
    [
      ("core.writeback_ns_per_op", per_op (total Obs.Writeback));
      ("core.fetch_ns_per_op", per_op (total Obs.Buffer_fetch));
      ("journal.commit_p99_ns", f (Obs.hist o Obs.Journal_commit).Hist.p99);
      ("journal.free_slots_min", if free_min = max_int then 0.0 else f free_min);
      ("nvmm.slot_wait_ns_per_op", per_op (total Obs.Slot_wait));
      ("nvmm.flush_ns_per_op", per_op (total Obs.Flush));
      ("nvmm.fence_ns_per_op", per_op (total Obs.Fence));
      ("sim.context_switches_per_op", per_op (f (Obs.context_switches o)));
    ]

let vfs_metrics (probe : Probe.t) =
  let by_class =
    List.concat_map
      (fun c ->
        let n = "vfs." ^ Probe.cls_name c in
        let s = probe.by_cls.(Probe.cls_index c) in
        let sorted = Samples.sorted s in
        [
          (n ^ ".calls", f (Samples.count s));
          (n ^ ".p50_ns", Samples.quantile sorted 0.5);
          (n ^ ".p99_ns", Samples.quantile sorted 0.99);
        ])
      Probe.measured
  in
  let total = Probe.error_count probe in
  let enoent = Probe.errors_of probe Errno.ENOENT in
  let einval = Probe.errors_of probe Errno.EINVAL in
  by_class
  @ [
      ("vfs.errors", f total);
      ("vfs.errors.enoent", f enoent);
      ("vfs.errors.einval", f einval);
      ("vfs.errors.other", f (total - enoent - einval));
    ]

let latency_metrics lat sync =
  let mean = Samples.mean lat in
  let lat = Samples.sorted lat and sync = Samples.sorted sync in
  [
    ("lat_mean_ns", mean);
    ("lat.p50_ns", Samples.quantile lat 0.5);
    ("lat_p99_ns", Samples.quantile lat 0.99);
    ("lat_p999_ns", Samples.quantile lat 0.999);
    ("sync_p50_ns", Samples.quantile sync 0.5);
    ("sync_p99_ns", Samples.quantile sync 0.99);
    ("lat.samples", f (Array.length lat));
    ("sync.samples", f (Array.length sync));
  ]

(* The p999 is reported only with at least ten samples beyond it. *)
let tail_notes lat =
  let beyond = Samples.beyond (Samples.sorted lat) 0.999 in
  if beyond < 10 then
    [ Fmt.str "lat_p999_ns rests on %d samples beyond it (need 10)" beyond ]
  else []

(* The crash image a run ends with: mount a copy of it with Pmfs.mount on a
   fresh simulation (running recovery) and require a clean fsck. Called
   once the run's own simulation is gone, so that only two copies of the
   medium are alive at a time. *)
let fsck_notes image =
  Gc.full_major ();
  let engine = Engine.create () in
  let device = Device.of_snapshot engine (Stats.create ()) config image in
  let notes = ref [] in
  Engine.spawn engine ~name:"fsck" (fun () ->
      let fs = Pmfs.mount device () in
      notes :=
        List.map (fun v -> "fsck: " ^ v) (Fsck.check_pmfs fs).Fsck.violations);
  match Engine.run engine with
  | () -> !notes
  | exception e -> [ "fsck: remount raised " ^ Printexc.to_string e ]

let start_sampler obs (env : Fixtures.env) =
  match obs with
  | Some o -> Obs.start_sampler o ~gauges:env.gauges
  | None -> ignore

let open_window env obs (probe : Probe.t) (spans : Spans.t) =
  Stats.reset env.Fixtures.stats;
  Option.iter Obs.reset obs;
  probe.on <- true;
  spans.on <- obs <> None;
  mark env

let close_window (probe : Probe.t) (spans : Spans.t) env =
  probe.on <- false;
  spans.on <- false;
  mark env

(* Run [body engine obs] as a fresh simulation's only top-level process.
   An exception escaping Engine.run comes back with its backtrace. *)
let simulate ~traced body =
  let engine = Engine.create () in
  let obs = if traced then Some (Obs.create engine) else None in
  Option.iter Obs.install obs;
  let result = ref None in
  Engine.spawn engine ~name:"perfbench" (fun () ->
      result := Some (body engine obs));
  let outcome =
    match Engine.run engine with
    | () -> (
      match !result with
      | Some r -> Ok r
      | None -> Error "the simulation drained before the benchmark finished")
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Error (Printexc.to_string e ^ "\n" ^ Printexc.raw_backtrace_to_string bt)
  in
  if traced then Obs.uninstall ();
  outcome

(* --- fileserver, varmail --- *)

(* Durability points. fileserver issues no fsync, so its points are its
   unlinks, which commit the metadata journal before they return;
   varmail's are its fsyncs. *)
let fileserver_sync = { Probe.fsync = false; unlink = true }
let varmail_sync = { Probe.fsync = true; unlink = false }

(* Refusals the filebench flows expect: the threads share one fileset, so
   an unlink or open may find a file another thread just deleted (ENOENT)
   or still holds open (EINVAL); filebench swallows both. They are counted
   by errno, not as failures. Any other errno is a failure. *)
let expected_errno = function Errno.ENOENT | Errno.EINVAL -> true | _ -> false

let filebench (w : Workload.t) ~sync ~warm ~measure engine obs =
  let c0 = cpu_s () in
  let env =
    Fixtures.setup engine ~config ~buffer_bytes:spec.buffer_bytes
      ~cache_pages:spec.cache_pages ~shards:1 Fixtures.Hinfs_fs
  in
  let stop_sampler = start_sampler obs env in
  let spans = Spans.create () in
  let probe = Probe.create ~rule:sync ~spans engine in
  let h = Probe.wrap probe env.handle in
  let setup_s = ref None and window = ref None in
  (* Workload.run's workers start right after its set-up and sync_all; the
     first step of the first one ends set-up and starts the window, which
     opens [warm] later and closes [measure] after that, while the workers
     still run *)
  let worker ctx =
    if Option.is_none !setup_s then begin
      setup_s := Some (cpu_s () -. c0);
      Proc.spawn ~name:"window" (fun () ->
          Proc.delay warm;
          let m0 = open_window env obs probe spans in
          Proc.delay measure;
          let m1 = close_window probe spans env in
          window :=
            Some (m0, m1, window_metrics env obs probe m0 m1 ~ops:(Probe.calls probe)))
    end;
    w.Workload.worker ctx
  in
  ignore
    (Workload.run ~seed:(Int64.of_int !seed) ~stats:env.stats ~threads:!threads
       ~duration:(Int64.add warm measure) { w with worker } h);
  while Option.is_none !window do
    Proc.delay 1000L
  done;
  let image = Device.snapshot env.device in
  stop_sampler ();
  env.teardown ();
  let m0, m1, metrics = Option.get !window in
  let ops = Probe.calls probe in
  let unexpected =
    Hashtbl.fold
      (fun e n acc -> if expected_errno e then acc else acc + n)
      probe.errors 0
  in
  let notes =
    (if unexpected > 0 then
         [ Fmt.str "%d vfs calls failed with an unexpected errno" unexpected ]
       else [])
    @ tail_notes probe.lat
  in
  let virt =
    (("ops_per_s", f ops /. (Int64.to_float measure /. 1e9))
     :: latency_metrics probe.lat probe.sync)
    @ vfs_metrics probe @ metrics
    @ [ ("fail_ratio", ratio (f (Probe.error_count probe)) (f ops)) ]
  in
  ( image,
  {
    virt;
    setup_s = Option.get !setup_s;
    measure_ns = 1e9 *. (m1.host -. m0.host);
    measured_ops = ops;
    calls_per_op = 1.0;
    alloc_per_op = ratio (m1.alloc -. m0.alloc) (f ops);
    major_gcs = f (m1.majors - m0.majors);
    attempted = ops;
    failed = unexpected;
    notes;
    info =
      Hashtbl.fold
        (fun e n acc -> Fmt.str "vfs errno %s: %d" (Errno.to_string e) n :: acc)
        probe.errors [];
    spans;
  } )

(* --- serve --- *)

let serve_sessions = 256
let serve_shards = 8
let reference_rate = 300_000.0
let ladder_rates = List.init 9 (fun i -> f (200_000 + (i * 100_000)))
let slo_p99_ns = 100_000.0

(* Twice the top of the ladder: every session has a backlog within the
   first 2 ms, so the server runs flat out and the completions in the
   window are its capacity. *)
let saturation_rate = 2_000_000.0
let saturation_ns = ms 20

let serve engine obs =
  let c0 = cpu_s () in
  let env =
    Fixtures.setup engine ~config ~buffer_bytes:spec.buffer_bytes
      ~cache_pages:spec.cache_pages ~shards:serve_shards Fixtures.Hinfs_fs
  in
  let stop_sampler = start_sampler obs env in
  let spans = Spans.create () in
  let probe = Probe.create ~attribute:true ~rule:Probe.no_sync ~spans engine in
  let h = Probe.wrap probe env.handle in
  let cfg =
    {
      Clients.default with
      Clients.clients = serve_sessions;
      shards = serve_shards;
      seed = Int64.of_int !seed;
    }
  in
  let srv = Server.create engine h in
  Clients.setup h cfg;
  (* every session's own file, written out to its full span: the ~16 MB
     write working set *)
  let block = Bytes.create cfg.file_span in
  for i = 0 to cfg.clients - 1 do
    Bytes.fill block 0 cfg.file_span (Serve_load.fill_char i);
    let fd = h.open_ (Clients.own_path cfg i) Types.creat in
    ignore (h.write fd block cfg.file_span);
    h.close fd
  done;
  h.sync_all ();
  Server.start srv;
  let st = Serve_load.create engine srv cfg probe spans ~seed:(Int64.of_int !seed) in
  let setup_s = cpu_s () -. c0 in
  let counters () =
    let c = Server.cache srv in
    [|
      Ofcache.hits c;
      Ofcache.misses c;
      Ofcache.evictions c;
      Server.err_replies srv;
      Server.expired_replies srv;
      Fhandle.estale_total (Server.handles srv);
    |]
  in
  let opened = ref None and window = ref None in
  let on_start _ =
    let m0 = open_window env obs probe spans in
    st.on <- true;
    opened := Some (m0, counters (), st.attempted)
  in
  let on_stop (ph : Serve_load.phase) =
    let m1 = close_window probe spans env in
    st.on <- false;
    let m0, c0, att0 = Option.get !opened in
    window :=
      Some
        ( m0,
          m1,
          c0,
          counters (),
          att0,
          window_metrics env obs probe m0 m1 ~ops:ph.completed )
  in
  let ref_ph, _ =
    Serve_load.run_phase st ~window:(on_start, on_stop) ~rate:reference_rate
      ~warm_ns:(ms 20) ~measure_ns:(ms 100) ~grace_ns:(ms 2)
  in
  let rungs, slo_rate =
    Serve_load.ladder st ~rates:ladder_rates ~resolution:0.02 ~warm_ns:(ms 5)
      ~measure_ns:(ms 20) ~grace_ns:(ms 2) ~slo_p99_ns
  in
  let sat, _ =
    Serve_load.run_phase st ~rate:saturation_rate ~warm_ns:(ms 2)
      ~measure_ns:saturation_ns ~grace_ns:0L
  in
  let capacity = f sat.completed /. (Int64.to_float saturation_ns /. 1e9) in
  let host_end = cpu_s () in
  Serve_load.stop st;
  let image = Device.snapshot env.device in
  Ofcache.drop_all (Server.cache srv);
  Server.stop srv;
  stop_sampler ();
  let unclaimed = Probe.unclaimed probe and worker_calls = probe.calls_on_workers in
  env.teardown ();
  let m0, m1, c0, c1, att0, metrics = Option.get !window in
  let ops = ref_ph.completed in
  let rpcs = Array.fold_left (fun acc s -> acc + Samples.count s) 0 st.rpc_lat in
  let p99 kind =
    let i = ref 0 in
    Array.iteri (fun j n -> if n = kind then i := j) Serve_load.kind_names;
    Samples.quantile (Samples.sorted st.rpc_lat.(!i)) 0.99
  in
  let d i = f (c1.(i) - c0.(i)) in
  let checks =
    if st.identity_errors > 0 then
      [ Fmt.str "%d rpcs claimed more vfs time than they took" st.identity_errors ]
    else []
  in
  let virt =
    (("ops_per_s", capacity) :: latency_metrics ref_ph.lat ref_ph.sync)
    @ vfs_metrics probe @ metrics
    @ [
        ("server.read.p99_ns", p99 "read");
        ("server.write.p99_ns", p99 "write");
        ("server.commit.p99_ns", p99 "commit");
        ("server.getattr.p99_ns", p99 "getattr");
        ("server.lookup.p99_ns", p99 "lookup");
        ("server.self_ns_per_req", ratio (f (st.rpc_ns - st.child_ns)) (f rpcs));
        ("server.queue_depth_max", f st.queue_max);
        ("server.ofcache_hit_ratio", ratio (d 0) (d 0 +. d 1));
        ("server.ofcache_evictions", d 2);
        ("server.err_replies", d 3);
        ("server.expired_replies", d 4);
        ("server.estale", d 5);
        ("server.vfs_calls_per_req", ratio (f (Probe.calls probe)) (f rpcs));
        ("server.unattributed_share", ratio (f unclaimed) (f worker_calls));
        ("serve.slo_rate_rps", slo_rate);
        ("gen.lag_max_ns", Int64.to_float st.lag_max);
        ("gen.achieved_over_offered", ratio (f ref_ph.completed) (f ref_ph.offered));
        ( "fail_ratio",
          ratio (f (st.failed + List.length checks)) (f (max 1 st.attempted)) );
      ]
  in
  let info =
    List.map
      (fun (r : Serve_load.rung) ->
        Fmt.str
          "ladder %7.0f req/s: offered %7.0f achieved %7.0f p99 %8.0f ns \
           drained %b -> %s"
          r.rate r.offered_rps r.achieved_rps r.p99_ns r.drained
          (if r.meets_slo then "meets SLO" else "misses SLO"))
      rungs
    @ [
        Fmt.str "saturation: offered %.0f req/s, achieved %.0f" saturation_rate
          capacity;
      ]
  in
  ( image,
  {
    virt;
    setup_s;
    measure_ns = 1e9 *. (host_end -. m0.host);
    measured_ops = st.attempted - att0;
    calls_per_op = ratio (f (Probe.calls probe)) (f ops);
    alloc_per_op = ratio (m1.alloc -. m0.alloc) (f ops);
    major_gcs = f (m1.majors - m0.majors);
    attempted = st.attempted;
    failed = st.failed + List.length checks;
    notes = checks @ List.rev st.notes @ tail_notes ref_ph.lat;
    info;
    spans;
  } )

(* --- crash enumeration --- *)

(* crashmc_smoke's parameters, with the run's seed *)
let crash_params () =
  {
    Crashmc.seed = Int64.of_int !seed;
    k_exhaustive = 10;
    samples_per_state = 28;
    max_images_per_state = 96;
    max_states = 40;
    recrash_states = 4;
    recrash_samples = 3;
    recrash_checks = 48;
  }

(* The counts crashmc_smoke explores at seed 42; the state count does not
   depend on the seed. *)
let smoke_states = 319
let smoke_images = 2593
let smoke_recovery_images = 682

(* Crashmc.run_scenario over Scenarios.all: every crash image is mounted
   (running recovery) and fsck'd. Returns the crashmc metrics, the failed
   checks and the number of images verified. *)
let crash_enumeration () =
  let params = crash_params () in
  let t0 = cpu_s () in
  let timed =
    List.map
      (fun sc ->
        let s0 = cpu_s () in
        let r = Crashmc.run_scenario ~params sc in
        (r, cpu_s () -. s0))
      Scenarios.all
  in
  let total_s = cpu_s () -. t0 in
  let report = { Crashmc.params; results = List.map fst timed } in
  Fmt.pr "%a@." Crashmc.pp_report report;
  let images = Crashmc.total_images report in
  let rimages = Crashmc.total_recovery_images report in
  let states = Crashmc.total_states report in
  let checks =
    List.map
      (fun (sc, st, v) -> Fmt.str "crashmc violation [%s/%s] %s" sc st v)
      (Crashmc.unexpected_violations report)
    @ List.map
        (fun n -> "crashmc fixture not flagged: " ^ n)
        (Crashmc.missed_fixtures report)
    @ (if states <> smoke_states then
         [ Fmt.str "%d crash states, expected %d" states smoke_states ]
       else [])
    @
    if !seed = 42 then
      if images <> smoke_images || rimages <> smoke_recovery_images then
        [
          Fmt.str "%d crash images and %d recovery images, expected %d and %d"
            images rimages smoke_images smoke_recovery_images;
        ]
      else []
    else if images < 1000 || rimages < 100 then
      [
        Fmt.str "%d crash images and %d recovery images, below 1000 and 100"
          images rimages;
      ]
    else []
  in
  let verified = images + rimages in
  ( [
      ("crashmc.images", f images);
      ("crashmc.recovery_images", f rimages);
      ("crashmc.states", f states);
      ("crashmc.host_ms_per_image", 1000.0 *. total_s /. f (max 1 verified));
      ( "crashmc.slowest_scenario_s",
        List.fold_left (fun acc (_, s) -> Float.max acc s) 0.0 timed );
    ],
    checks,
    verified )

(* --- reporting --- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> f kb /. 1024.0
        | None -> acc)
      0.0
      (String.split_on_char '\n' status)
  | exception Sys_error _ ->
    f ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_number v)) fields)
  ^ "}"

let print_result ~correct ~attempted ~failed names values =
  List.iter
    (fun (name, unit, _) ->
      Printf.printf "%-32s %20s %s\n" name
        (json_number (Option.value ~default:0.0 (List.assoc_opt name values)))
        unit)
    names;
  let field (name, unit, _) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
      (json_number (Option.value ~default:0.0 (List.assoc_opt name values)))
      unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed
    (String.concat ", " (List.map field names))

let run_failed reason =
  Printf.printf "RUN-FAILED workload %s seed %d threads %d: %s\n" !workload !seed
    !threads reason

(* [crash]: a traced run also enumerates crash images, within the same
   time budget. *)
let sim_main ?(crash = false) run =
  let traced = !trace = 1 in
  let t0 = Probe.host_ns () in
  let crash_metrics, crash_checks, crash_images =
    if crash && traced then crash_enumeration () else ([], [], 0)
  in
  let attempt ~traced =
    Gc.full_major ();
    match simulate ~traced run with
    | Error e -> Error e
    | Ok (image, (r : rep)) ->
      let fsck = fsck_notes image in
      Ok
        {
          r with
          notes = fsck @ r.notes;
          failed = r.failed + List.length fsck;
        }
  in
  (* untraced repetitions while the time allows; in a traced run each one
     is paired with a traced repetition *)
  let rec loop n acc =
    let pair =
      match attempt ~traced:false with
      | Error e -> Error e
      | Ok u when not traced -> Ok (u, None)
      | Ok u -> (
        match attempt ~traced:true with
        | Ok t -> Ok (u, Some t)
        | Error e -> Error e)
    in
    match pair with
    | Error e -> (List.rev acc, Some e)
    | Ok p ->
      let acc = p :: acc in
      let elapsed = secs_since t0 in
      if n < !max_reps && elapsed *. f (n + 1) /. f n <= !seconds then
        loop (n + 1) acc
      else (List.rev acc, None)
  in
  let pairs, abort = loop 1 [] in
  let untraced = List.map fst pairs and traced_reps = List.filter_map snd pairs in
  let checks = ref [] in
  let check fmt = Fmt.kstr (fun s -> checks := s :: !checks) fmt in
  List.iter (check "%s") crash_checks;
  (match untraced with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i (r : rep) ->
        List.iter
          (fun (name, a) ->
            match List.assoc_opt name r.virt with
            | Some b when b = a -> ()
            | b ->
              check "nondeterministic: %s is %g in repetition 1, %s in repetition %d"
                name a
                (match b with Some b -> Fmt.str "%g" b | None -> "absent")
                (i + 2))
          first.virt)
      rest;
    List.iter
      (fun (r : rep) ->
        List.iter
          (fun (name, a) ->
            match List.assoc_opt name r.virt with
            | Some b when b = a -> ()
            | b ->
              check "trace bug: %s is %g untraced, %s traced" name a
                (match b with Some b -> Fmt.str "%g" b | None -> "absent"))
          first.virt)
      traced_reps;
    Printf.printf "VIRTUAL %s\n" (json_object first.virt);
    (match traced_reps with
    | t :: _ -> Printf.printf "VIRTUAL-TRACED %s\n" (json_object t.virt)
    | [] -> ());
    List.iter print_endline first.info);
  let all = untraced @ traced_reps in
  List.iter (fun (r : rep) -> List.iter (Printf.printf "CHECK %s\n") r.notes) all;
  List.iter (Printf.printf "CHECK %s\n") (List.rev !checks);
  Option.iter run_failed abort;
  Printf.printf "repetitions: %d untraced, %d traced, %.1f s\n"
    (List.length untraced) (List.length traced_reps) (secs_since t0);
  List.iter
    (fun (r : rep) ->
      Printf.printf "repetition: set-up %.3f s, %.0f host ns per op\n" r.setup_s
        (r.measure_ns /. f (max 1 r.measured_ops)))
    untraced;
  let attempted =
    List.fold_left (fun acc (r : rep) -> acc + r.attempted) crash_images all
  in
  let failed =
    List.fold_left (fun acc (r : rep) -> acc + r.failed) (List.length crash_checks) all
    + if abort = None then 0 else 1
  in
  let correct =
    abort = None && untraced <> [] && failed = 0 && !checks = []
    && List.for_all (fun (r : rep) -> r.notes = []) all
  in
  (* The first repetition also pays for growing the process heap; host
     medians leave it out when later repetitions exist. *)
  let warm = match untraced with _ :: (_ :: _ as rest) -> rest | reps -> reps in
  let host per = median (List.map per warm) in
  let per_op (r : rep) = r.measure_ns /. f (max 1 r.measured_ops) in
  if not traced then begin
    let virt = match untraced with r :: _ -> r.virt | [] -> [] in
    let values =
      virt
      @ [
          ("setup_s", host (fun r -> r.setup_s));
          ("peak_rss_mb", peak_rss_mb ());
        ]
    in
    print_result ~correct ~attempted ~failed end_to_end values
  end
  else begin
    let virt =
      match (traced_reps, untraced) with
      | t :: _, _ -> t.virt
      | [], u :: _ -> u.virt
      | [], [] -> []
    in
    let first_untraced get =
      match untraced with r :: _ -> get r | [] -> 0.0
    in
    let traced_ns = median (List.map (fun (r : rep) -> r.measure_ns) traced_reps) in
    let values =
      virt
      @ [
          ("vfs.host_ns_per_call", host (fun r -> per_op r /. r.calls_per_op));
          ("sim.host_ns_per_op", host per_op);
          ("sim.alloc_bytes_per_op", first_untraced (fun r -> r.alloc_per_op));
          ("sim.major_gcs", first_untraced (fun r -> r.major_gcs));
          ("trace.host_overhead_ratio", ratio traced_ns (host (fun r -> r.measure_ns)));
        ]
      @ crash_metrics
    in
    (match traced_reps with
    | t :: _ ->
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path =
        Filename.concat out_dir (Fmt.str "spans-%s-seed%d.csv" !workload !seed)
      in
      Spans.write t.spans path;
      Printf.printf "spans: %d written to %s\n" (Spans.count t.spans) path
    | [] -> ());
    print_result ~correct ~attempted ~failed per_layer values
  end

(* --- command line --- *)

let () =
  Printexc.record_backtrace true;
  let specs =
    [
      ("--workload", Arg.Set_string workload, "fileserver|varmail|serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to repeat measurements");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--threads", Arg.Set_int threads, "T simulated threads (filebench, default 4)");
      ("--warmup-ms", Arg.Set_int warmup_ms, "M virtual warm-up before the window");
      ("--window-ms", Arg.Set_int window_ms, "M virtual measured window");
      ("--max-reps", Arg.Set_int max_reps, "R at most R repetitions");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let warm default = ms (if !warmup_ms >= 0 then !warmup_ms else default) in
  let measure default = ms (if !window_ms > 0 then !window_ms else default) in
  match !workload with
  | "fileserver" ->
    sim_main
      (filebench (Filebench.fileserver ()) ~sync:fileserver_sync ~warm:(warm 300)
         ~measure:(measure 200))
  | "varmail" ->
    sim_main ~crash:true
      (filebench (Filebench.varmail ()) ~sync:varmail_sync ~warm:(warm 100)
         ~measure:(measure 200))
  | "serve" -> sim_main serve
  | w ->
    Printf.eprintf "perfbench: unknown workload %S\n" w;
    exit 2
