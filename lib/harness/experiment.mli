(** Experiment driver: one fresh simulation per (file system, workload,
    configuration) cell. *)

type spec = {
  nvmm_size : int;
  nvmm_write_ns : int;
  nvmm_bandwidth : int;
  buffer_bytes : int;  (** HiNFS DRAM write buffer *)
  cache_pages : int;  (** EXT page cache ("system memory") *)
  threads : int;
  duration_ns : int64;
  seed : int64;
  shards : int;  (** HiNFS hot-state shards (1 = unsharded, the default) *)
}

val default_spec : spec
(** Laptop-scale calibration of the paper's Table 2 setup: ratios preserved
    (buffer ~0.4x dataset, page cache ~0.6x dataset, 1 GB/s NVMM at
    200 ns), sizes divided by ~80. See EXPERIMENTS.md. *)

val trace_spec : spec
(** Fig. 12 sizing: DRAM buffer = 1/10 of the trace working set. *)

val config_of : spec -> Hinfs_nvmm.Config.t

(** {2 Running a cell}

    Every run takes the same optional [obs]: without it no sink is
    installed and the returned {!Hinfs_obs.Obs.t} stays empty; [`Hist]
    installs one for the run (latency histograms, counters, and the
    periodic gauge sampler between mount and teardown); [`Trace]
    additionally keeps per-event data for Chrome-trace export. The sink is
    global: do not nest observed runs. *)

type obs = [ `Hist | `Trace ]

val with_env :
  ?obs:obs ->
  spec ->
  Fixtures.fs_kind ->
  (Fixtures.env -> 'a) ->
  'a * Hinfs_stats.Stats.t * Hinfs_obs.Obs.t

val run_workload :
  ?spec:spec ->
  ?threads:int ->
  ?duration:int64 ->
  ?obs:obs ->
  Fixtures.fs_kind ->
  Hinfs_workloads.Workload.t ->
  Hinfs_workloads.Workload.result * Hinfs_stats.Stats.t * Hinfs_obs.Obs.t

val run_job :
  ?spec:spec ->
  ?obs:obs ->
  Fixtures.fs_kind ->
  Hinfs_workloads.Workload.job ->
  Hinfs_workloads.Workload.job_result * Hinfs_stats.Stats.t * Hinfs_obs.Obs.t

val run_trace :
  ?spec:spec ->
  ?obs:obs ->
  Fixtures.fs_kind ->
  Hinfs_trace.Trace.t ->
  Hinfs_trace.Trace.replay_result * Hinfs_stats.Stats.t * Hinfs_obs.Obs.t
