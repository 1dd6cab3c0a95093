(* hinfs-cli: run a single workload/job/trace against a chosen file system
   with configurable emulator parameters. The figure-grade grids live in
   bench/main.exe; this tool is for exploring one cell at a time. *)

module Fixtures = Hinfs_harness.Fixtures
module Experiment = Hinfs_harness.Experiment
module Workload = Hinfs_workloads.Workload
module Filebench = Hinfs_workloads.Filebench
module Fio = Hinfs_workloads.Fio
module Postmark = Hinfs_workloads.Postmark
module Tpcc = Hinfs_workloads.Tpcc
module Kernel = Hinfs_workloads.Kernel
module Trace = Hinfs_trace.Trace
module Stats = Hinfs_stats.Stats
module Report = Hinfs_harness.Report
module Crashmc = Hinfs_crashmc.Crashmc
module Scenarios = Hinfs_crashmc.Scenarios
module Engine = Hinfs_sim.Engine
module Rng = Hinfs_sim.Rng
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Fault = Hinfs_nvmm.Fault
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Errno = Hinfs_vfs.Errno
module Fsck = Hinfs_fsck.Fsck
module Scrub = Hinfs_fsck.Scrub
module Obs = Hinfs_obs.Obs

open Cmdliner

let fs_kind_conv =
  let all =
    [
      ("hinfs", Fixtures.Hinfs_fs);
      ("hinfs-nclfw", Fixtures.Hinfs_nclfw);
      ("hinfs-wb", Fixtures.Hinfs_wb);
      ("pmfs", Fixtures.Pmfs_fs);
      ("cowfs", Fixtures.Cow_fs);
      ("ext4-dax", Fixtures.Ext4_dax);
      ("ext2", Fixtures.Ext2_nvmmbd);
      ("ext4", Fixtures.Ext4_nvmmbd);
      ("ext4-sync", Fixtures.Ext4_sync);
      ("ext2-nvlog", Fixtures.Ext2_nvlog);
      ("ext4-nvlog", Fixtures.Ext4_nvlog);
      ("ext4-nvpage", Fixtures.Ext4_nvpage);
    ]
  in
  Arg.enum all

let fs_arg =
  let doc = "File system under test." in
  Arg.(value & opt fs_kind_conv Fixtures.Hinfs_fs & info [ "f"; "fs" ] ~doc)

let threads_arg =
  let doc = "Worker threads." in
  Arg.(value & opt int 4 & info [ "t"; "threads" ] ~doc)

let duration_arg =
  let doc = "Measurement window in virtual milliseconds." in
  Arg.(value & opt int 200 & info [ "d"; "duration-ms" ] ~doc)

let latency_arg =
  let doc = "NVMM write latency in nanoseconds." in
  Arg.(value & opt int 200 & info [ "nvmm-write-ns" ] ~doc)

let buffer_arg =
  let doc = "HiNFS DRAM buffer size in MB." in
  Arg.(value & opt int 24 & info [ "buffer-mb" ] ~doc)

let shards_arg =
  let doc =
    "HiNFS hot-state shards: per-shard buffer pools, journal regions and \
     allocator ranges (1 = unsharded)."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~doc)

let spec_of latency buffer_mb shards =
  {
    Experiment.default_spec with
    Experiment.nvmm_write_ns = latency;
    Experiment.buffer_bytes = buffer_mb * 1024 * 1024;
    Experiment.shards;
  }

let print_stats stats =
  Fmt.pr "@.%a@." Stats.pp_breakdown stats;
  Fmt.pr "user bytes: %Ld written / %Ld read; fsync bytes: %Ld (%.1f%%)@."
    (Stats.user_bytes_written stats)
    (Stats.user_bytes_read stats) (Stats.fsync_bytes stats)
    (100.0 *. Stats.fsync_byte_ratio stats);
  Fmt.pr "NVMM bytes written: %Ld (background %Ld), read: %Ld@."
    (Stats.nvmm_bytes_written stats)
    (Stats.nvmm_bytes_written_bg stats)
    (Stats.nvmm_bytes_read stats);
  if Stats.buffer_write_hits stats + Stats.buffer_write_misses stats > 0 then
    Fmt.pr
      "buffer: %.1f%% write hits, %d stalls, %d evictions, %d dead drops, \
       lazy/eager = %d/%d, model accuracy %.1f%% (%d)@."
      (100.0 *. Stats.buffer_write_hit_ratio stats)
      (Stats.writeback_stalls stats)
      (Stats.evictions stats)
      (Stats.dead_block_drops stats)
      (Stats.lazy_writes stats) (Stats.eager_writes stats)
      (100.0 *. Stats.bbm_accuracy stats)
      (Stats.bbm_predictions stats);
  Report.persistence Fmt.stdout stats;
  Report.block_layer Fmt.stdout stats;
  Report.media Fmt.stdout stats;
  Report.recovery Fmt.stdout stats

let workload_of = function
  | "fileserver" -> `Rate (Filebench.fileserver ())
  | "webserver" -> `Rate (Filebench.webserver ())
  | "webproxy" -> `Rate (Filebench.webproxy ())
  | "varmail" -> `Rate (Filebench.varmail ())
  | "fio" -> `Rate (Fio.make ())
  | "postmark" -> `Job (Postmark.make ())
  | "tpcc" -> `Job (Tpcc.make ())
  | "kernel-grep" -> `Job (Kernel.grep ())
  | "kernel-make" -> `Job (Kernel.make_build ())
  | "usr0" -> `Trace (Trace.usr0 ())
  | "usr1" -> `Trace (Trace.usr1 ())
  | "lasr" -> `Trace (Trace.lasr ())
  | "facebook" -> `Trace (Trace.facebook ())
  | other -> Fmt.failwith "unknown workload %S" other

let workload_arg =
  let doc =
    "Workload: fileserver, webserver, webproxy, varmail, fio, postmark, \
     tpcc, kernel-grep, kernel-make, usr0, usr1, lasr, facebook."
  in
  Arg.(value & pos 0 string "fileserver" & info [] ~docv:"WORKLOAD" ~doc)

let trace_out_arg =
  let doc =
    "Write a Chrome trace-event JSON file to $(docv) (load it in \
     chrome://tracing or Perfetto). Timestamps are virtual nanoseconds."
  in
  Arg.(
    value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let hist_arg =
  let doc = "Print per-span latency histograms and sampled-gauge tables." in
  Arg.(value & flag & info [ "hist" ] ~doc)

(* [run] and [serve] always install the observability sink; [--trace] also
   keeps per-event data for the Chrome-trace export. *)
let obs_mode trace_out = if trace_out = None then `Hist else `Trace

(* Write the Chrome trace when one was asked for, and exit 1 when span
   accounting is broken. *)
let finish_obs trace_out obs =
  (match trace_out with
  | None -> ()
  | Some path ->
    Hinfs_harness.Profile.write_file path (Obs.chrome_trace obs);
    Fmt.pr "trace written to %s@." path);
  let open_spans = Obs.open_spans obs and mismatches = Obs.mismatches obs in
  if open_spans > 0 || mismatches > 0 then begin
    Fmt.epr "hinfs-cli: span accounting broken (%d open, %d mismatched)@."
      open_spans mismatches;
    1
  end
  else 0

let run fs threads duration_ms latency buffer_mb shards trace_out hist
    workload_name =
  let spec = spec_of latency buffer_mb shards in
  let mode = obs_mode trace_out in
  Fmt.pr "# %s on %s (%s)@." workload_name (Fixtures.name fs)
    (Fixtures.description fs);
  let stats, obs =
    match workload_of workload_name with
    | `Rate w ->
      let result, stats, obs =
        Experiment.run_workload ~spec ~threads
          ~duration:(Int64.of_int (duration_ms * 1_000_000))
          ~obs:mode fs w
      in
      Fmt.pr "%a@." Workload.pp_result result;
      (stats, obs)
    | `Job job ->
      let result, stats, obs = Experiment.run_job ~spec ~obs:mode fs job in
      Fmt.pr "%a@." Workload.pp_job_result result;
      (stats, obs)
    | `Trace trace ->
      let result, stats, obs =
        Experiment.run_trace ~spec ~obs:mode fs trace
      in
      Fmt.pr "%a@." Trace.pp_replay_result result;
      (stats, obs)
  in
  print_stats stats;
  if hist then begin
    Report.latency Fmt.stdout obs;
    Report.gauges Fmt.stdout obs
  end;
  finish_obs trace_out obs

let run_term =
  Term.(
    const run $ fs_arg $ threads_arg $ duration_arg $ latency_arg
    $ buffer_arg $ shards_arg $ trace_out_arg $ hist_arg $ workload_arg)

let run_cmd =
  let doc =
    "Run one workload cell (default command), with the observability sink \
     installed: optional latency histograms, sampled gauges and Chrome trace \
     export"
  in
  Cmd.v (Cmd.info "run" ~doc) run_term

(* --- crashmc: crash-state enumeration + fsck --- *)

let seed_arg =
  let doc = "Deterministic seed for crash-image sampling." in
  Arg.(value & opt int64 Crashmc.default_params.seed & info [ "seed" ] ~doc)

let k_arg =
  let doc =
    "Enumerate crash images exhaustively when at most $(docv) cachelines \
     are undecided; sample beyond that."
  in
  Arg.(
    value
    & opt int Crashmc.default_params.k_exhaustive
    & info [ "k" ] ~docv:"K" ~doc)

let samples_arg =
  let doc = "Sampled crash images per state when not exhaustive." in
  Arg.(
    value
    & opt int Crashmc.default_params.samples_per_state
    & info [ "samples" ] ~doc)

let max_images_arg =
  let doc = "Exhaustive-product budget per crash state." in
  Arg.(
    value
    & opt int Crashmc.default_params.max_images_per_state
    & info [ "max-images" ] ~doc)

let max_states_arg =
  let doc = "Captured crash states per scenario (thinned adaptively)." in
  Arg.(
    value
    & opt int Crashmc.default_params.max_states
    & info [ "max-states" ] ~doc)

let recrash_checks_arg =
  let doc =
    "Per-scenario budget of crash-during-recovery verifications: each crash \
     image is recovered with the persistence recorder armed, re-crashed at \
     recovery fences, and recovered again (0 disables)."
  in
  Arg.(
    value
    & opt int Crashmc.default_params.recrash_checks
    & info [ "recrash-checks" ] ~doc)

let scenarios_arg =
  let doc =
    Fmt.str "Scenarios to check (default: all). Known: %s."
      (String.concat ", " Scenarios.names)
  in
  Arg.(value & pos_all string [] & info [] ~docv:"SCENARIO" ~doc)

let crashmc_run seed k samples max_images max_states recrash_checks names =
  let params =
    {
      Crashmc.seed;
      k_exhaustive = k;
      samples_per_state = samples;
      max_images_per_state = max_images;
      max_states;
      recrash_states = Crashmc.default_params.recrash_states;
      recrash_samples = Crashmc.default_params.recrash_samples;
      recrash_checks;
    }
  in
  match
    List.filter (fun n -> Scenarios.by_name n = None) names
  with
  | bad :: _ ->
    Fmt.epr "hinfs-cli: unknown scenario %S (known: %s)@." bad
      (String.concat ", " Scenarios.names);
    2
  | [] ->
    let scenarios =
      match names with
      | [] -> Scenarios.all
      | names -> List.filter_map Scenarios.by_name names
    in
    let report = Crashmc.run_suite ~params scenarios in
    Fmt.pr "%a@." Crashmc.pp_report report;
    if Crashmc.ok report then 0 else 1

let crashmc_cmd =
  let doc =
    "Enumerate crash states under the x86 persistency model and check each \
     image with recovery + fsck + the durability oracle"
  in
  Cmd.v
    (Cmd.info "crashmc" ~doc)
    Term.(
      const crashmc_run $ seed_arg $ k_arg $ samples_arg $ max_images_arg
      $ max_states_arg $ recrash_checks_arg $ scenarios_arg)

(* --- scrub: media-fault injection + repair demo --- *)

let scrub_seed_arg =
  let doc = "Deterministic seed for the fault model and line placement." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~doc)

let poison_rate_arg =
  let doc = "Per-line probability that a full-line store poisons its line." in
  Arg.(value & opt float 0.0 & info [ "poison-rate" ] ~doc)

let transient_rate_arg =
  let doc = "Per-line probability of a transient fault on a clean load." in
  Arg.(value & opt float 0.0 & info [ "transient-rate" ] ~doc)

let poison_lines_arg =
  let doc = "Cachelines struck with persistent poison before the remount." in
  Arg.(value & opt int 16 & info [ "poison-lines" ] ~doc)

let scrub_files_arg =
  let doc = "Files written before injection (8 KB each, synchronous)." in
  Arg.(value & opt int 8 & info [ "files" ] ~doc)

let scrub_size_arg =
  let doc = "Device size in MB." in
  Arg.(value & opt int 8 & info [ "size-mb" ] ~doc)

(* Build a small PMFS, poison random lines while it is unmounted, remount
   (superblock repair + recovery run here), read everything back, then
   scrub and fsck. Demonstrates the retry -> repair -> read-only ladder on
   a reproducible image. *)
let scrub_run seed poison_rate transient_rate poison_lines files size_mb
    shards =
  let exit_code = ref 0 in
  let engine = Engine.create () in
  Engine.spawn engine ~name:"scrub" (fun () ->
      let stats = Stats.create () in
      let config =
        { Config.default with Config.nvmm_size = size_mb * 1024 * 1024 }
      in
      let device = Device.create engine stats config in
      let fs = Pmfs.mkfs_and_mount device ~journal_blocks:32 ~shards () in
      let file_len = 8192 in
      let payload i =
        let rng = Rng.create ~seed:(Int64.add seed (Int64.of_int (i + 1))) in
        Bytes.init file_len (fun _ -> Char.chr (Rng.int rng 256))
      in
      let inos =
        List.init files (fun i ->
            let ino =
              Pmfs.create_file fs ~dir:Layout.root_ino (Fmt.str "f%03d" i)
            in
            ignore
              (Pmfs.write fs ~ino ~off:0 ~src:(payload i) ~src_off:0
                 ~len:file_len ~sync:true);
            ino)
      in
      Pmfs.unmount fs;
      let fault = Fault.create ~poison_rate ~transient_rate ~seed () in
      Device.set_fault_model device (Some fault);
      let ls = config.Config.cacheline_size in
      let lines = Device.size device / ls in
      let rng = Rng.create ~seed:(Int64.add seed 0x5C4BL) in
      for _ = 1 to poison_lines do
        Fault.poison_line fault (Rng.int rng lines)
      done;
      Fmt.pr
        "injected %d poisoned line(s), seed %Ld, poison rate %g, transient \
         rate %g@."
        (Fault.poisoned_count fault)
        seed poison_rate transient_rate;
      match Pmfs.mount device () with
      | exception Errno.Fs_error (code, msg) ->
        (* Both superblock copies lost: nothing to mount, nothing silent. *)
        Fmt.pr "mount failed (%s): %s@." (Errno.to_string code) msg
      | fs ->
      let eio = ref 0 and corrupt = ref 0 and intact = ref 0 in
      List.iteri
        (fun i ino ->
          let buf = Bytes.create file_len in
          match
            Pmfs.read fs ~ino ~off:0 ~len:file_len ~into:buf ~into_off:0
          with
          | n ->
            if n = file_len && Bytes.equal buf (payload i) then incr intact
            else incr corrupt
          | exception Errno.Fs_error (Errno.EIO, _) -> incr eio)
        inos;
      Fmt.pr "readback: %d intact, %d EIO, %d silently corrupt@." !intact
        !eio !corrupt;
      (if Pmfs.shard_count fs > 1 then
         let by_shard = Pmfs.recovered_by_shard fs in
         Fmt.pr "recovery rollbacks by shard: %a@."
           Fmt.(array ~sep:(any " ") int)
           by_shard);
      let sreport = Scrub.run fs in
      Fmt.pr "%a@." Scrub.pp_report sreport;
      (if Pmfs.shard_count fs > 1 then
         Array.iteri
           (fun s heals ->
             Fmt.pr
               "shard %d: %d heal(s), %d data line(s) lost, health %s@." s
               heals
               sreport.Scrub.lost_by_shard.(s)
               (Hinfs_pmfs.Health.state_name
                  (Hinfs_pmfs.Health.shard_state (Pmfs.health fs) s)))
           sreport.Scrub.repairs_by_shard);
      if sreport.Scrub.remaining_poison > 0 then
        Fmt.pr "unhealed poison: %d line(s) remain@."
          sreport.Scrub.remaining_poison;
      let freport = Fsck.check_pmfs fs in
      Fmt.pr "%a@." Fsck.pp_report freport;
      (match Pmfs.read_only_reason fs with
      | Some r -> Fmt.pr "mount degraded to read-only: %s@." r
      | None -> Fmt.pr "mount still read-write@.");
      Report.media Fmt.stdout stats;
      Report.recovery Fmt.stdout stats;
      (* Silent corruption is the one unacceptable outcome. *)
      if !corrupt > 0 then exit_code := 1;
      (* A still-writable file system must also be structurally clean. *)
      if (not (Pmfs.read_only fs)) && not (Fsck.ok freport) then
        exit_code := 1;
      (* Unhealed poison left on the image is CI-gateable: a clean scrub
         run must end with zero poisoned lines. *)
      if sreport.Scrub.remaining_poison > 0 then exit_code := 1);
  Engine.run engine;
  !exit_code

let scrub_cmd =
  let doc =
    "Inject deterministic media faults into a small PMFS image, remount, \
     and run the scrubber + poison-aware fsck"
  in
  Cmd.v
    (Cmd.info "scrub" ~doc)
    Term.(
      const scrub_run $ scrub_seed_arg $ poison_rate_arg $ transient_rate_arg
      $ poison_lines_arg $ scrub_files_arg $ scrub_size_arg $ shards_arg)

(* --- serve: client fleet through the request-level serving layer --- *)

module Server = Hinfs_server.Server
module Clients = Hinfs_server.Clients
module Ofcache = Hinfs_server.Ofcache
module Fhandle = Hinfs_server.Fhandle
module Session = Hinfs_server.Session

let clients_arg =
  let doc = "Simulated client processes in the fleet." in
  Arg.(value & opt int 64 & info [ "clients" ] ~doc)

let ops_per_client_arg =
  let doc = "Requests issued per client (plus the initial CREATE)." in
  Arg.(value & opt int 50 & info [ "ops-per-client" ] ~doc)

let workers_arg =
  let doc = "Server worker fibers draining the request queue." in
  Arg.(value & opt int 8 & info [ "workers" ] ~doc)

let cache_cap_arg =
  let doc = "Open-file cache capacity (LRU, flush-on-evict)." in
  Arg.(value & opt int 64 & info [ "cache-cap" ] ~doc)

let lease_ms_arg =
  let doc = "Session lease in virtual milliseconds." in
  Arg.(value & opt int 50 & info [ "lease-ms" ] ~doc)

let serve_seed_arg =
  let doc = "Deterministic seed for the client fleet and the mount." in
  Arg.(value & opt int64 7L & info [ "seed" ] ~doc)

(* One serving cell: mount [fs], run the fleet through the full codec +
   session + handle-table + open-file-cache path, and report request
   throughput with per-class and per-phase latency tables. *)
let serve_run fs latency buffer_mb shards clients ops_per_client workers
    cache_cap lease_ms seed trace_out =
  let spec = { (spec_of latency buffer_mb shards) with Experiment.seed } in
  let cfg =
    {
      Clients.default with
      Clients.clients;
      ops_per_client;
      shards = max 1 shards;
      seed;
    }
  in
  Fmt.pr "# serve %d clients x %d ops on %s (%d shards, %d workers)@."
    clients ops_per_client (Fixtures.name fs) shards workers;
  let cell, _stats, obs =
    Experiment.with_env ~obs:(obs_mode trace_out) spec fs (fun env ->
        let srv =
          Server.create ~workers ~cache_cap
            ~lease_ns:(Int64.of_int (lease_ms * 1_000_000))
            env.Hinfs_harness.Fixtures.engine env.Hinfs_harness.Fixtures.handle
        in
        Server.start srv;
        let t0 = Hinfs_sim.Proc.now () in
        let total = Clients.run env.Hinfs_harness.Fixtures.engine srv cfg in
        let t1 = Hinfs_sim.Proc.now () in
        let cache = Server.cache srv in
        let summary =
          ( total,
            Int64.sub t1 t0,
            Server.served srv,
            Server.err_replies srv,
            Server.expired_replies srv,
            (Ofcache.hits cache, Ofcache.misses cache, Ofcache.evictions cache),
            ( Fhandle.live (Server.handles srv),
              Fhandle.total (Server.handles srv),
              Fhandle.estale_total (Server.handles srv) ),
            Session.expired_total (Server.sessions srv) )
        in
        Ofcache.drop_all cache;
        Server.stop srv;
        summary)
  in
  let ( total, elapsed_ns, served, errs, expired, (hits, misses, evictions),
        (fh_live, fh_total, estales), sess_expired ) =
    cell
  in
  let secs = Int64.to_float elapsed_ns /. 1e9 in
  Fmt.pr "%d requests in %.2f virtual ms: %.0f req/s@." total (secs *. 1e3)
    (if secs > 0.0 then float_of_int total /. secs else 0.0);
  Fmt.pr
    "served %d (%d errors, %d expired-session replies); open-file cache \
     %d hits / %d misses / %d evictions; handles %d live / %d minted, %d \
     ESTALE served; %d session(s) expired@."
    served errs expired hits misses evictions fh_live fh_total estales
    sess_expired;
  Report.latency Fmt.stdout obs;
  Report.gauges Fmt.stdout obs;
  finish_obs trace_out obs

let serve_cmd =
  let doc =
    "Drive a simulated client fleet through the NFS-style serving layer \
     (sessions, stable handles, open-file cache) and report per-request- \
     class latency tails"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve_run $ fs_arg $ latency_arg $ buffer_arg $ shards_arg
      $ clients_arg $ ops_per_client_arg $ workers_arg $ cache_cap_arg
      $ lease_ms_arg $ serve_seed_arg $ trace_out_arg)

let cmd =
  let doc = "HiNFS-reproduction workbench" in
  Cmd.group ~default:run_term
    (Cmd.info "hinfs-cli" ~doc)
    [ run_cmd; crashmc_cmd; scrub_cmd; serve_cmd ]

let () = exit (Cmd.eval' cmd)
