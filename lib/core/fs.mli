(** HiNFS: the high performance NVMM file system (paper §3).

    Layered on the PMFS persistent format, HiNFS buffers lazy-persistent
    writes in a DRAM write buffer (LRW-managed, cacheline-granular CLFW),
    routes reads and eager-persistent writes directly to NVMM, and keeps
    read consistency through the per-file DRAM Block Index plus per-block
    Cacheline Bitmaps. Metadata for buffered writes lives in per-file
    pending undo-log transactions committed only after the data is written
    back (ordered mode).

    All operations must run inside a simulation process. *)

type t

type file_state
(** Per-file buffer state (opaque outside this module). *)

(** {1 Mount lifecycle} *)

val mkfs_and_mount :
  Hinfs_nvmm.Device.t ->
  ?journal_blocks:int ->
  ?shards:int ->
  ?hcfg:Hconfig.t ->
  ?daemons:bool ->
  unit ->
  t
(** mkfs a fresh PMFS layout and mount HiNFS over it. The undo journal is
    sized with the buffer unless [journal_blocks] is given. [shards]
    (default 1) is the number of hot-state shards: per-shard buffer pools,
    journal regions and allocator ranges, with files mapped to shards by
    inode; the superblock records it for every later mount. [daemons]
    (default true) starts the writeback threads and the journal cleaner. *)

val mount :
  Hinfs_nvmm.Device.t ->
  ?hcfg:Hconfig.t ->
  ?daemons:bool ->
  unit ->
  t
(** Mount an existing PMFS image (running log recovery if the previous
    session crashed) and start HiNFS over it with an empty buffer. *)

val unmount : t -> unit
(** Flush all buffered data, commit pending transactions, stop daemons. *)

val handle : t -> Hinfs_vfs.Vfs.handle
(** The syscall-level handle (open/read/write/fsync/...). *)

(** {1 Accessors} *)

val pmfs : t -> Hinfs_pmfs.Pmfs.t
val shard_count : t -> int
(** Number of hot-state shards (per-shard buffer pool, journal, allocator
    ranges), as recorded in the superblock at mkfs time. *)

val shard_pool : t -> int -> Buffer_pool.t
(** The given shard's DRAM buffer pool. *)

(** {1 Inode-level operations}

    These are what {!Backend} wires into the VFS; exposed for tests and
    for building custom frontends. *)

val read :
  t -> ino:int -> off:int -> len:int -> into:Bytes.t -> into_off:int -> int

val write :
  t -> ino:int -> off:int -> src:Bytes.t -> src_off:int -> len:int ->
  sync:bool -> int
(** [sync] marks the write eager-persistent (case 1 of §3.3.2); otherwise
    the Eager-Persistent Write Checker decides per block. *)

val fsync : t -> ino:int -> unit
(** Flush the file's dirty buffered blocks, commit its pending metadata
    transaction, and update the Buffer Benefit Model. *)

val unlink : t -> dir:int -> string -> unit

val sync_all : t -> unit

(** {1 Introspection (tests, benchmarks)} *)

val buffered_blocks : t -> int
val free_buffer_blocks : t -> int
val dirty_buffered_blocks : t -> int

val pending_txns : t -> int
(** Files whose ordered-mode metadata transaction is still open. *)

val is_block_buffered : t -> ino:int -> fblock:int -> bool

val block_state_eager : t -> ino:int -> fblock:int -> bool
(** The checker's current verdict for the block (decay applied). *)

val flush_file :
  ?background:bool ->
  ?cat:Hinfs_stats.Stats.category ->
  t ->
  file_state ->
  evict:bool ->
  unit
(** Write back (and optionally evict) every buffered block of a file. *)

val file_state : t -> int -> file_state
(** Get-or-create the buffer state for an inode. *)

(** {1 VFS backend} *)

module Backend : Hinfs_vfs.Backend.S with type t = t
