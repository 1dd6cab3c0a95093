(** HiNFS tuning knobs, with the paper's defaults (§3.2, §3.3.2). *)

type t = {
  buffer_bytes : int;  (** DRAM write buffer capacity *)
  low_watermark : float;
      (** wake the writeback daemons below this free fraction (Low_f, 5%) *)
  high_watermark : float;
      (** daemons reclaim until this free fraction (High_f, 20%) *)
  flush_interval_ns : int64;  (** periodic writeback wakeup (5 s) *)
  age_flush_ns : int64;  (** clean blocks dirty for longer than this (30 s) *)
  eager_decay_ns : int64;
      (** Eager-Persistent decays to Lazy after this long without a sync on
          the file (5 s) *)
  writeback_threads : int;
  clfw : bool;  (** Cacheline Level Fetch/Writeback; [false] = HiNFS-NCLFW *)
  checker : bool;
      (** Eager-Persistent Write Checker + Buffer Benefit Model;
          [false] = HiNFS-WB (buffer everything) *)
}

val default : t

val validate : t -> t
(** Returns the config, or raises [Invalid_argument]. *)
