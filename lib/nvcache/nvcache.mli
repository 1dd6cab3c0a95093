(** A durable NVMM write-cache tier in front of the block file systems.

    The tier reserves the tail of the NVMM device and interposes on the
    backend's {!Hinfs_blockdev.Blockdev} via {!Hinfs_blockdev.Blockdev.tier}:
    synchronous block writes are absorbed into NVMM (fenced before the
    write returns, so the bio-completion-implies-durability contract the
    ext4 journal relies on still holds) and destaged to the extfs backend
    asynchronously, in order. Mount-time replay applies whatever the cache
    still held at a crash before the backend's own journal recovery runs.

    Two interchangeable designs sit behind the one interface (the
    logging-vs-paging comparison of the related work):

    - {b Logging}: every absorbed write appends one CRC-32C'd record (the
      page's dirty byte run, not the whole block) to a ring log; fsync cost
      is O(append + fence). A DRAM index provides read-your-writes; the
      destage daemon applies records in order and truncates the log by
      advancing a persistent head pointer.
    - {b Paging}: dirty blocks live in NVMM page slots (64-byte CRC'd slot
      entry + whole-block payload); a rewrite allocates a fresh slot so a
      torn overwrite can never lose the previously fsync'd version; destage
      writes back whole pages and clears the slot entries. *)

type design = Logging | Paging

val design_name : design -> string

type t
(** Tier state for one mounted cache area. *)

(** What mount-time replay found. *)
type recovery = {
  rec_design : design;
  rec_replayed : int;  (** records / slots applied to the backend *)
  rec_bytes : int;  (** payload bytes applied *)
  rec_dropped : int;  (** records lost to CRC damage or media poison *)
}

(** {1 Raw cache area (format / recover)} *)

val default_cache_bytes : Hinfs_nvmm.Config.t -> int
(** Device-size/8, clamped to [64 KiB, 64 MiB] and block-aligned. *)

val recover : Hinfs_nvmm.Device.t -> ?cache_bytes:int -> unit -> recovery
(** Replay the cache area onto the backend blocks, untimed but visible to
    the persistence recorder ({!Hinfs_nvmm.Device.poke_flushed} +
    {!Hinfs_nvmm.Device.fence_untimed}), so crash enumeration covers a
    re-crash in the middle of replay; the replay is idempotent. Finishes
    by persisting an empty cache whose next sequence number is above every
    replayed record, so stale records can never replay twice. The design
    is read back from the header. *)

(** {1 Composed stack: nvcache over extfs} *)

type stack
(** An extfs mount with the tier attached to its block device. *)

val mkfs_and_mount :
  Hinfs_nvmm.Device.t ->
  design:design ->
  mode:Hinfs_extfs.Extfs.mode ->
  ?cache_bytes:int ->
  ?journal_blocks:int ->
  ?sync_mount:bool ->
  ?cache_pages:int ->
  ?daemons:bool ->
  unit ->
  stack
(** mkfs an extfs over the leading blocks, format the cache area over the
    tail, mount, and attach the tier. [daemons] also starts the extfs
    daemons and the destage daemon. Call from inside a simulation
    process. *)

val mount :
  Hinfs_nvmm.Device.t ->
  mode:Hinfs_extfs.Extfs.mode ->
  ?cache_bytes:int ->
  ?sync_mount:bool ->
  ?cache_pages:int ->
  ?daemons:bool ->
  unit ->
  stack
(** {!recover} the cache area onto the backend, then mount the extfs
    (running its own journal replay on the now-consistent backend) and
    attach an empty tier. *)

val unmount : stack -> unit
(** Flush the file system into the tier, drain the destage queue, stop the
    daemon: a clean unmount leaves the cache empty and the backend
    self-contained. *)

val fs : stack -> Hinfs_extfs.Extfs.t
val cache : stack -> t
val handle : stack -> Hinfs_vfs.Vfs.handle
val last_recovery : stack -> recovery option
(** What {!mount}-time replay found ([None] after [mkfs_and_mount]). *)

(** {1 Introspection (tests, gauges, report)} *)

val capacity_bytes : t -> int
(** Payload capacity: ring data region (logging) / slot payloads (paging). *)

val used_bytes : t -> int
(** Log occupancy (logging) / occupied-slot payload bytes (paging). *)

val backlog : t -> int
(** Destage queue length. *)

val appends : t -> int
val absorbed_bytes : t -> int
val destages : t -> int
(** Destage batches completed. *)

val destaged_records : t -> int
val stalls : t -> int
(** Appends that had to wait for destage to free space. *)

val bypassed_writes : t -> int
(** Writes the tier declined (write-around): background writeback, or a
    foreground write past half occupancy, when no older cached version of
    the block forces absorption. These take the block device's direct
    fenced path. *)

val destage_all : t -> unit
(** Foreground drain of the destage queue (unmount, scenarios). *)
