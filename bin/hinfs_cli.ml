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
    [ run_cmd; crashmc_cmd; serve_cmd ]

let () = exit (Cmd.eval' cmd)
