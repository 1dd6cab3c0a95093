(* Tests for the workload generators, trace generators/replayer, and the
   experiment harness: determinism, op-mix properties, and end-to-end runs
   on small configurations. *)

module Engine = Hinfs_sim.Engine
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Workload = Hinfs_workloads.Workload
module Filebench = Hinfs_workloads.Filebench
module Fio = Hinfs_workloads.Fio
module Postmark = Hinfs_workloads.Postmark
module Tpcc = Hinfs_workloads.Tpcc
module Kernel = Hinfs_workloads.Kernel
module Trace = Hinfs_trace.Trace
module Fixtures = Hinfs_harness.Fixtures
module Experiment = Hinfs_harness.Experiment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A small, fast spec for tests. *)
let tiny_spec =
  {
    Experiment.default_spec with
    Experiment.nvmm_size = 48 * 1024 * 1024;
    Experiment.buffer_bytes = 2 * 1024 * 1024;
    Experiment.cache_pages = 512;
    Experiment.threads = 2;
    Experiment.duration_ns = 10_000_000L;
  }

let small_fb =
  {
    Filebench.default_params with
    Filebench.nfiles = 24;
    Filebench.mean_file_size = 16 * 1024;
    Filebench.io_size = 16 * 1024;
    Filebench.append_size = 4 * 1024;
  }

let small_workloads () =
  [
    ("fileserver", Filebench.fileserver ~params:small_fb ());
    ("webserver", Filebench.webserver ~params:small_fb ());
    ("webproxy", Filebench.webproxy ~params:small_fb ());
    ("varmail", Filebench.varmail ~params:small_fb ());
    ( "fio",
      Fio.make
        ~params:
          { Fio.default_params with Fio.file_size = 1024 * 1024; Fio.io_size = 4096 }
        () );
  ]

(* --- every rate workload runs on every FS kind without error --- *)

let test_workloads_run_everywhere () =
  List.iter
    (fun kind ->
      List.iter
        (fun (name, w) ->
          let result, _stats =
            Experiment.run_workload ~spec:tiny_spec kind w
          in
          if result.Workload.ops <= 0 then
            Alcotest.failf "%s on %s performed no ops" name
              (Fixtures.name kind))
        (small_workloads ()))
    [
      Fixtures.Pmfs_fs;
      Fixtures.Hinfs_fs;
      Fixtures.Ext2_nvmmbd;
      Fixtures.Ext4_nvmmbd;
      Fixtures.Ext4_dax;
    ]

let test_ablation_kinds_run () =
  List.iter
    (fun kind ->
      let result, _ =
        Experiment.run_workload ~spec:tiny_spec kind
          (Filebench.fileserver ~params:small_fb ())
      in
      check_bool "ops > 0" true (result.Workload.ops > 0))
    [ Fixtures.Hinfs_nclfw; Fixtures.Hinfs_wb ]

(* --- determinism: same seed, same result --- *)

let test_determinism () =
  let run () =
    let result, stats =
      Experiment.run_workload ~spec:tiny_spec Fixtures.Hinfs_fs
        (Filebench.fileserver ~params:small_fb ())
    in
    (result.Workload.ops, Stats.nvmm_bytes_written stats)
  in
  let a = run () and b = run () in
  check_bool "bit-identical runs" true (a = b)

let test_different_seeds_differ () =
  let run seed =
    let spec = { tiny_spec with Experiment.seed } in
    let result, _ =
      Experiment.run_workload ~spec Fixtures.Hinfs_fs
        (Filebench.fileserver ~params:small_fb ())
    in
    result.Workload.ops
  in
  check_bool "seeds change the run" true (run 1L <> run 99L)

(* --- jobs --- *)

let small_postmark =
  { Postmark.default_params with Postmark.nfiles = 40; Postmark.transactions = 120 }

let small_tpcc =
  {
    Tpcc.default_params with
    Tpcc.heap_pages = 64;
    Tpcc.transactions = 60;
    Tpcc.checkpoint_every = 16;
  }

let small_kernel =
  { Kernel.default_params with Kernel.nfiles = 30; Kernel.dirs = 5 }

let test_jobs_complete () =
  List.iter
    (fun kind ->
      List.iter
        (fun (name, job) ->
          let r, _ = Experiment.run_job ~spec:tiny_spec kind job in
          if r.Workload.jr_ops <= 0 then
            Alcotest.failf "%s on %s did nothing" name (Fixtures.name kind);
          check_bool "elapsed > 0" true
            (Int64.compare r.Workload.jr_elapsed_ns 0L > 0))
        [
          ("postmark", Postmark.make ~params:small_postmark ());
          ("tpcc", Tpcc.make ~params:small_tpcc ());
          ("kernel-grep", Kernel.grep ~params:small_kernel ());
          ("kernel-make", Kernel.make_build ~params:small_kernel ());
        ])
    [ Fixtures.Pmfs_fs; Fixtures.Hinfs_fs ]

let test_tpcc_fsync_heavy () =
  let _r, stats =
    Experiment.run_job ~spec:tiny_spec Fixtures.Pmfs_fs
      (Tpcc.make ~params:small_tpcc ())
  in
  (* Fig 2: TPC-C has > 90% fsync bytes. *)
  check_bool "tpcc fsync ratio high" true (Stats.fsync_byte_ratio stats > 0.9)

let test_kernel_grep_is_read_only () =
  let _r, stats =
    Experiment.run_job ~spec:tiny_spec Fixtures.Pmfs_fs
      (Kernel.grep ~params:small_kernel ())
  in
  Alcotest.(check int64) "no user writes" 0L (Stats.user_bytes_written stats);
  check_bool "plenty of reads" true
    (Int64.compare (Stats.user_bytes_read stats) 100_000L > 0)

(* --- traces --- *)

let test_trace_profiles () =
  let count trace =
    List.fold_left
      (fun (r, w, u, f) op ->
        match op with
        | Trace.Read _ -> (r + 1, w, u, f)
        | Trace.Write _ -> (r, w + 1, u, f)
        | Trace.Unlink _ -> (r, w, u + 1, f)
        | Trace.Fsync _ -> (r, w, u, f + 1))
      (0, 0, 0, 0)
      (Trace.ops trace)
  in
  (* LASR: Fig 2 shows zero fsync writes. *)
  let _, _, _, lasr_fsyncs = count (Trace.lasr ~ops:2000 ()) in
  check_int "lasr has no fsync" 0 lasr_fsyncs;
  (* Facebook: almost every write is followed by a sync. *)
  let _, fb_writes, _, fb_fsyncs = count (Trace.facebook ~ops:2000 ()) in
  check_bool "facebook syncs nearly every write" true
    (float_of_int fb_fsyncs > 0.8 *. float_of_int fb_writes);
  (* Usr0: a moderate share of syncs, more writes than reads. *)
  let u_reads, u_writes, _, u_fsyncs = count (Trace.usr0 ~ops:2000 ()) in
  check_bool "usr0 write-leaning" true (u_writes > u_reads);
  check_bool "usr0 moderate fsync" true (u_fsyncs > 0 && u_fsyncs < u_writes)

let test_trace_generation_deterministic () =
  let a = Trace.usr1 ~ops:500 () and b = Trace.usr1 ~ops:500 () in
  check_bool "identical traces" true (Trace.ops a = Trace.ops b)

let test_facebook_small_io () =
  let trace = Trace.facebook ~ops:2000 () in
  let total, n =
    List.fold_left
      (fun (total, n) op ->
        match op with
        | Trace.Write { len; _ } -> (total + len, n + 1)
        | _ -> (total, n))
      (0, 0) (Trace.ops trace)
  in
  (* §5.3: the Facebook trace's mean I/O size is below 1 KB. *)
  check_bool "mean write below 1 KB" true (total / max 1 n < 1024)

let test_replay_runs_and_breaks_down () =
  List.iter
    (fun kind ->
      let r, _stats =
        Experiment.run_trace
          ~spec:{ tiny_spec with Experiment.buffer_bytes = 1024 * 1024 }
          kind
          (Trace.usr0 ~ops:800 ())
      in
      check_bool "ops replayed" true (r.Trace.r_ops > 800);
      let sum =
        Int64.add r.Trace.r_read_ns
          (Int64.add r.Trace.r_write_ns
             (Int64.add r.Trace.r_unlink_ns r.Trace.r_fsync_ns))
      in
      check_bool "breakdown <= total" true
        (Int64.compare sum r.Trace.r_elapsed_ns <= 0);
      check_bool "breakdown covers most of the total" true
        (Int64.to_float sum > 0.9 *. Int64.to_float r.Trace.r_elapsed_ns))
    [ Fixtures.Pmfs_fs; Fixtures.Hinfs_fs ]

(* --- paper-shape sanity checks (small scale) --- *)

let test_hinfs_beats_pmfs_on_lazy_writes () =
  let ops kind =
    let result, _ =
      Experiment.run_workload ~spec:tiny_spec kind
        (Filebench.fileserver ~params:small_fb ())
    in
    result.Workload.ops_per_sec
  in
  check_bool "hinfs > pmfs on fileserver" true
    (ops Fixtures.Hinfs_fs > ops Fixtures.Pmfs_fs)

let test_hinfs_matches_pmfs_on_reads () =
  let ops kind =
    let result, _ =
      Experiment.run_workload ~spec:tiny_spec kind
        (Kernel.grep ~params:small_kernel ()
        |> fun job ->
        ignore job;
        Filebench.webserver ~params:small_fb ())
    in
    result.Workload.ops_per_sec
  in
  let hinfs = ops Fixtures.Hinfs_fs and pmfs = ops Fixtures.Pmfs_fs in
  check_bool "within 2x of each other" true
    (hinfs < 2.0 *. pmfs && pmfs < 2.0 *. hinfs)

let test_latency_sensitivity_direction () =
  (* Fig 11: HiNFS's advantage over PMFS grows with NVMM write latency. *)
  let ratio nvmm_write_ns =
    let spec = { tiny_spec with Experiment.nvmm_write_ns } in
    let ops kind =
      let result, _ =
        Experiment.run_workload ~spec ~threads:1 kind
          (Filebench.fileserver ~params:small_fb ())
      in
      result.Workload.ops_per_sec
    in
    ops Fixtures.Hinfs_fs /. ops Fixtures.Pmfs_fs
  in
  let slow = ratio 800 and fast = ratio 50 in
  check_bool "advantage grows with latency" true (slow > fast);
  check_bool "never loses at DRAM-like latency" true (fast > 0.8)

let () =
  Alcotest.run "workloads"
    [
      ( "rate-workloads",
        [
          Alcotest.test_case "run on every fs" `Slow
            test_workloads_run_everywhere;
          Alcotest.test_case "ablation kinds run" `Quick
            test_ablation_kinds_run;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "seed-sensitive" `Quick
            test_different_seeds_differ;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "complete" `Slow test_jobs_complete;
          Alcotest.test_case "tpcc fsync-heavy" `Quick test_tpcc_fsync_heavy;
          Alcotest.test_case "kernel-grep read-only" `Quick
            test_kernel_grep_is_read_only;
        ] );
      ( "traces",
        [
          Alcotest.test_case "profiles" `Quick test_trace_profiles;
          Alcotest.test_case "deterministic" `Quick
            test_trace_generation_deterministic;
          Alcotest.test_case "facebook small io" `Quick test_facebook_small_io;
          Alcotest.test_case "replay breakdown" `Quick
            test_replay_runs_and_breaks_down;
        ] );
      ( "paper-shape",
        [
          Alcotest.test_case "buffering wins on fileserver" `Quick
            test_hinfs_beats_pmfs_on_lazy_writes;
          Alcotest.test_case "reads at par" `Quick
            test_hinfs_matches_pmfs_on_reads;
          Alcotest.test_case "latency sensitivity" `Slow
            test_latency_sensitivity_direction;
        ] );
    ]
