(** The BENCH_HINFS.json schema: machine-readable perf summaries.

    Derived entirely from deterministic virtual-clock data — two runs with
    the same seed produce byte-identical files. *)

val experiment_json :
  name:string ->
  fs:string ->
  ops:int ->
  elapsed_ns:int64 ->
  Hinfs_obs.Obs.t ->
  Hinfs_obs.Ojson.t
(** One benchmark cell: throughput plus latency histograms split into
    ["latency_ns"] (op classes) and ["phases_ns"] (internal phases), the
    sampled-gauge summaries under ["counters"], and sink health under
    ["obs"]. *)

val bench_json :
  config:(string * Hinfs_obs.Ojson.t) list ->
  Hinfs_obs.Ojson.t list ->
  Hinfs_obs.Ojson.t
(** The top-level file: schema tag, version, run configuration, and the
    experiment list. *)

val write_file : string -> Hinfs_obs.Ojson.t -> unit
(** Pretty-print the JSON to [path] (diff-friendly, trailing newline). *)
