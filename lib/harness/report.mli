(** Table/figure rendering helpers for the benchmark harness. *)

val heading : Format.formatter -> string -> unit
val subheading : Format.formatter -> string -> unit

val bar : float -> max_value:float -> width:int -> string
(** A unit-less horizontal bar for quick visual comparison. *)

val table : Format.formatter -> header:string list -> string list list -> unit
(** Aligned table: header row, separator, then the rows. *)

val persistence : Format.formatter -> Hinfs_stats.Stats.t -> unit
(** Per-category clflush (issued / dirty-line) and mfence counters; silent
    when the run recorded none. *)

val block_layer : Format.formatter -> Hinfs_stats.Stats.t -> unit
(** NVMMBD request counters (bios issued, tier-absorbed writes); silent
    when the run touched no block device. *)

val media : Format.formatter -> Hinfs_stats.Stats.t -> unit
(** Media-fault counters (injected faults, retries, scrub repairs, CRC
    mismatches); silent when the run recorded none. *)

val recovery : Format.formatter -> Hinfs_stats.Stats.t -> unit
(** Mount-time log-recovery counters (passes run, transactions rolled back,
    unusable records dropped); silent when every mount was clean. *)

val latency : Format.formatter -> Hinfs_obs.Obs.t -> unit
(** Per-span latency histogram table (count/p50/p90/p99/p999/max/mean in
    virtual ns); silent when the sink recorded no spans. *)

val gauges : Format.formatter -> Hinfs_obs.Obs.t -> unit
(** Sampled-gauge statistics from the periodic sampler; silent when no
    samples were recorded. *)

val f0 : float -> string
val f1 : float -> string
val f2 : float -> string
val ms : int64 -> string
(** Nanoseconds rendered as milliseconds with two decimals. *)
