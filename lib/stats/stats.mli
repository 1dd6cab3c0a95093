(** Measurement sink for one experiment run.

    All the paper's figures are computed from these accumulators. Times are
    virtual nanoseconds from the simulation clock. *)

type t

(** Where time was spent, following Fig. 1's taxonomy plus the extra
    software-stack categories the block-based baselines exercise. *)
type category =
  | Read_access  (** copying file data toward the user buffer *)
  | Write_access  (** copying user data toward DRAM/NVMM *)
  | Journal  (** journaling (undo log / jbd) work *)
  | Block_layer  (** generic block layer per-request overhead *)
  | Other  (** syscall entry, allocation, index maintenance *)

val categories : category list
val category_name : category -> string

(** Trace-replay op classes (Fig. 12). *)
type op_class = Read_op | Write_op | Unlink_op | Fsync_op

val create : unit -> t
val reset : t -> unit

(** {1 Time} *)

val add_time : t -> category -> int64 -> unit
val time : t -> category -> int64
val total_time : t -> int64
val add_op_time : t -> op_class -> int64 -> unit
val op_time : t -> op_class -> int64

(** {1 Byte accounting} *)

val add_user_read : t -> int -> unit
val add_user_written : t -> int -> unit

val add_fsync_bytes : t -> int -> unit
(** User bytes that had to be persisted eagerly (synchronous or
    fsync-covered writes) — the numerator of Fig. 2. *)

val add_nvmm_written : ?background:bool -> t -> int -> unit
val add_nvmm_read : t -> int -> unit
val user_bytes_read : t -> int64
val user_bytes_written : t -> int64
val fsync_bytes : t -> int64
val nvmm_bytes_written : t -> int64
val nvmm_bytes_written_bg : t -> int64
val nvmm_bytes_read : t -> int64
val fsync_byte_ratio : t -> float

(** {1 Buffer behaviour (HiNFS)} *)

val buffer_write_hit : t -> unit
val buffer_write_miss : t -> unit
val buffer_read_hit : t -> unit
val buffer_read_miss : t -> unit
val writeback_stall : t -> unit
val eviction : t -> unit

val dead_block_drop : t -> int -> unit
(** Buffered dirty blocks dropped because their file was deleted before
    writeback — the short-lived-file win of §5.2.3. *)

val add_coalesced_cachelines : t -> int -> unit
val buffer_write_hits : t -> int
val buffer_write_misses : t -> int
val buffer_read_hits : t -> int
val buffer_read_misses : t -> int
val writeback_stalls : t -> int
val evictions : t -> int
val dead_block_drops : t -> int
val coalesced_cacheline_writes : t -> int64
val buffer_write_hit_ratio : t -> float

(** {1 Buffer Benefit Model accuracy (Fig. 6)} *)

val bbm_prediction : t -> correct:bool -> unit
val bbm_accuracy : t -> float
val bbm_predictions : t -> int
val eager_write : t -> unit
val lazy_write : t -> unit
val eager_writes : t -> int
val lazy_writes : t -> int

(** {1 Persistence instructions}

    Per-category clflush/mfence issue counts, so flush-heavy paths are
    visible in bench output. [lines] is the cachelines covered by the
    flush, [dirty] how many were actually written back. *)

val add_clflush : t -> category -> lines:int -> dirty:int -> unit
val add_mfence : t -> category -> unit
val clflush_issued : t -> category -> int
val clflush_dirty : t -> category -> int
val mfences : t -> category -> int
val total_clflush_issued : t -> int
val total_clflush_dirty : t -> int
val total_mfences : t -> int

(** {1 Media faults}

    Counters for the NVMM media-fault subsystem: faults delivered by the
    device's fault model, read retries after transient faults, scrubber
    repairs, and metadata checksum mismatches detected by recovery or the
    scrubber. *)

val add_media_fault : t -> transient:bool -> unit
val add_media_retry : t -> unit
val add_scrub_repair : ?n:int -> t -> unit
val add_crc_mismatch : t -> unit
val media_faults_transient : t -> int
val media_faults_poison : t -> int
val total_media_faults : t -> int
val media_retries : t -> int
val scrub_repairs : t -> int
val crc_mismatches : t -> int

(** {1 Mount-time recovery}

    Counters for undo-log recovery: how many unclean mounts ran recovery,
    how many uncommitted transactions they rolled back, and how many
    journal entries had to be dropped as unusable (CRC-damaged). *)

val add_recovery : t -> rolled_back:int -> dropped:int -> unit
val recoveries : t -> int
val recovered_txns : t -> int
val recovery_dropped : t -> int

(** {1 Block-tier requests}

    Per-request counters for the NVMMBD block layer, so destage and
    journal traffic below a cache tier is observable like the NVMM
    persistence instructions are. An absorbed write is one a durability
    tier (lib/nvcache) swallowed before it became a block request. *)

val add_block_read : t -> unit
val add_block_write : t -> unit
val add_block_absorbed : t -> unit
val block_read_requests : t -> int
val block_write_requests : t -> int
val block_absorbed_writes : t -> int

val pp_breakdown : Format.formatter -> t -> unit
