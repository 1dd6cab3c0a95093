(** PMFS: the direct-access NVMM file system baseline (Dulloor et al.,
    EuroSys'14), re-implemented on the device model.

    Data moves straight between the user buffer and NVMM with non-temporal
    stores; metadata is journaled at cacheline granularity. PMFS is also
    the persistent substrate HiNFS builds on: the {!Data} submodule exposes
    the lower-level operations the buffer layer needs. *)

type t

(** {1 mkfs / mount} *)

val mkfs :
  Hinfs_nvmm.Device.t ->
  ?journal_blocks:int ->
  ?shards:int ->
  unit ->
  unit
(** [shards] (default 1) partitions the hot state: the journal region is
    split into per-shard sub-regions and the inode table and data region
    into per-shard allocator ranges (Layout v3). *)

val mount :
  Hinfs_nvmm.Device.t ->
  ?journal_cleaner:bool ->
  unit ->
  t
(** Mounts the device (running undo-log recovery if the previous session
    did not unmount cleanly) and rebuilds the DRAM allocators from the live
    inode trees. [journal_cleaner] spawns the background log cleaner (call
    from inside a simulation process if set). *)

val mkfs_and_mount :
  Hinfs_nvmm.Device.t ->
  ?journal_blocks:int ->
  ?shards:int ->
  ?journal_cleaner:bool ->
  unit ->
  t

val unmount : t -> unit
val recovered_txns : t -> int

val recovered_by_shard : t -> int array
(** Transactions rolled back per shard journal during mount recovery
    (all zeros after a clean mount). *)

val attach_faultops : t -> Hinfs_nvmm.Faultops.t option -> unit
(** Wire an operation-level fault injector into every software resource
    path of this mount — data-block allocation, inode allocation, journal
    slot allocation. [None] detaches. Injected failures take the same
    ENOSPC / [Journal_full] paths genuine exhaustion would. *)

(** {1 Graceful degradation (per fault domain)}

    Each shard of a sharded mount is a fault domain, and the mount domain
    holds what no shard owns (superblock, epoch record); an unsharded
    mount has only the mount domain. A domain is healthy or degraded, and
    a degraded domain keeps the reason of its first fault. An
    unrecoverable metadata fault (poisoned live inode slot, untrusted
    journal records dropped during recovery) degrades only the owning
    domain: it keeps serving reads and fsync but rejects mutations with
    [EROFS], while sibling shards keep serving read-write. A repair pass
    ([Hinfs_fsck.Repair.run_once]) re-admits the domain in place. Transient
    media faults on the data path are retried up to 3 times, immediately;
    persistent ones surface as [EIO]. *)

val read_only : t -> bool
(** Whole-mount view: [true] when the mount domain is degraded (no write
    anywhere can succeed). Individual shards may be degraded while this is
    [false]. *)

val read_only_reason : t -> string option

val fully_healthy : t -> bool
(** Every fault domain healthy; only then does unmount certify the image
    clean. *)

val degrade : t -> string -> unit
(** Degrade the mount domain with a reason (first reason wins). Used for
    faults no shard owns: superblock, epoch record. *)

val degrade_shard : t -> int -> string -> unit
(** Degrade shard [s]'s domain (the mount domain when the mount is
    unsharded). *)

val domain_fault : t -> int -> string option
(** First-fault reason of repair domain [s], [None] when it is healthy.
    Repair domains are numbered like shards: domain [s] is shard [s] of a
    sharded mount, and domain 0 of an unsharded mount is the mount. *)

val failed_repairs : t -> int -> int
(** Repair passes over domain [s] that failed since it was last
    re-admitted. *)

val end_repair : t -> int -> ok:bool -> unit
(** Record the outcome of a repair pass over domain [s]: [ok] re-admits
    the domain (healthy, failure count reset), otherwise it stays degraded
    and its failure count grows. *)

val shard_of_addr : t -> int -> int option
(** Which shard owns a byte address (journal sub-region, inode-table
    slot, or data block), for fault attribution; [None] for mount-scoped
    addresses (superblock, epoch record). *)

val check_writable_ino : t -> ino:int -> unit
(** Raise [EROFS] when the mount or [ino]'s home shard cannot take
    writes; mutations call this first. *)

(** {1 Accessors} *)

val ctx : t -> Fs_ctx.t
val geometry : t -> Layout.geometry
val device : t -> Hinfs_nvmm.Device.t

val log : t -> Hinfs_journal.Cacheline_log.t
(** Shard 0's journal — the only one when [shards = 1]. Per-inode
    operations must use {!log_for}. *)

val log_for : t -> ino:int -> Hinfs_journal.Cacheline_log.t
(** The journal of [ino]'s home shard. *)

val shard_count : t -> int
val shard_of_ino : t -> int -> int
val epoch : t -> Hinfs_journal.Epoch.t
val free_data_blocks : t -> int

val set_sabotage_skip_epoch : bool -> unit
(** Crash-fixture sabotage (global): cross-shard renames commit each
    shard's transaction independently instead of through the epoch record,
    recreating the torn-rename window the epoch protocol closes. crashmc
    vacuity fixtures only. *)

(** {1 Inode operations} *)

val inode_size : t -> int -> int
val stat_of : t -> int -> Hinfs_vfs.Types.stat

val read :
  t -> ino:int -> off:int -> len:int -> into:Bytes.t -> into_off:int -> int

val write_direct :
  ?background:bool ->
  ?cat:Hinfs_stats.Stats.category ->
  t ->
  ino:int ->
  off:int ->
  src:Bytes.t ->
  src_off:int ->
  len:int ->
  int
(** The PMFS data path: non-temporal stores, allocation and size update in
    a journaled transaction. Also used by HiNFS's eager-persistent writes
    and (with [background]) by its writeback. *)

val write :
  t -> ino:int -> off:int -> src:Bytes.t -> src_off:int -> len:int ->
  sync:bool -> int

val truncate : t -> ino:int -> size:int -> unit
val fsync : t -> ino:int -> unit

(** {1 Namespace}

    The operations below expect the preconditions of
    {!Hinfs_vfs.Backend.S}: the VFS decides every namespace errno. *)

val lookup : t -> dir:int -> string -> int option
val create_file : t -> dir:int -> string -> int
val mkdir : t -> dir:int -> string -> int
val unlink : t -> dir:int -> string -> unit
val rmdir : t -> dir:int -> string -> unit

val rename :
  t -> src_dir:int -> src:string -> dst_dir:int -> dst:string -> unit

val readdir : t -> dir:int -> (string * int) list

(** {1 Lower-level data operations (the HiNFS substrate)} *)

module Data : sig
  val block_addr : t -> int -> int
  val lookup_block : t -> ino:int -> fblock:int -> int option

  val ensure_block :
    t -> Hinfs_journal.Cacheline_log.txn -> ino:int -> fblock:int ->
    int * bool
  (** Find-or-allocate the NVMM home block inside [txn]. Returns
      [(block, fresh)]. The blocks the call allocated (index nodes + data)
      are owned by [txn] before anything after the allocation can raise,
      so an abort reclaims them — even when [ensure_block] itself raises
      mid-op; an allocation that fails part-way frees its partial path
      itself and leaves [txn] valid for commit or abort. *)

  val update_size :
    t -> Hinfs_journal.Cacheline_log.txn -> ino:int -> size:int -> unit

  val touch_mtime_atomic : t -> ino:int -> unit
  (** 8-byte atomic in-place mtime update (no transaction), PMFS-style. *)

  val touch_mtime_txn :
    t -> Hinfs_journal.Cacheline_log.txn -> ino:int -> unit

  val zero_fresh_block :
    ?background:bool ->
    t ->
    cat:Hinfs_stats.Stats.category ->
    block:int ->
    covered_start:int ->
    covered_end:int ->
    unit
end

(** {1 VFS} *)

module Backend : Hinfs_vfs.Backend.S with type t = t

val handle : t -> Hinfs_vfs.Vfs.handle
