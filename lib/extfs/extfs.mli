(** EXT2/EXT4-like block file system over NVMMBD + the OS page cache — the
    paper's traditional baselines (Table 3). *)

(** Mount mode:
    - [Ext2]: no journaling;
    - [Ext4]: jbd2-style ordered-mode metadata journal with a periodic
      commit daemon;
    - [Ext4_dax]: the DAX patch — file data bypasses the page cache and
      moves directly to NVMM; metadata keeps the cache-and-journal path. *)
type mode = Ext2 | Ext4 | Ext4_dax

type t

(** {1 mkfs / mount} *)

val mkfs :
  Hinfs_nvmm.Device.t ->
  ?journal_blocks:int ->
  ?total_blocks:int ->
  unit ->
  unit
(** [total_blocks] shrinks the file system below the device size (default:
    the whole device) so a durability tier can reserve the tail; the
    reduced geometry persists in the superblock. *)

val mount :
  Hinfs_nvmm.Device.t ->
  mode:mode ->
  ?sync_mount:bool ->
  ?cache_pages:int ->
  unit ->
  t
(** Replays the journal (EXT4 modes), loads the allocation bitmaps, builds
    the page cache ([cache_pages] is the "system memory"). *)

val start_daemons : t -> unit
(** Spawn the pdflush-like flusher and (EXT4 modes) the periodic jbd commit
    daemon; call from inside a simulation process. *)

val mkfs_and_mount :
  Hinfs_nvmm.Device.t ->
  mode:mode ->
  ?journal_blocks:int ->
  ?total_blocks:int ->
  ?sync_mount:bool ->
  ?cache_pages:int ->
  ?daemons:bool ->
  unit ->
  t

val unmount : t -> unit

(** {1 Accessors} *)

val mode : t -> mode

val bdev : t -> Hinfs_blockdev.Blockdev.t
(** The NVMMBD instance this mount issues requests to — the attachment
    point for a {!Hinfs_blockdev.Blockdev.tier}. *)

val free_data_blocks : t -> int
val journal_commits : t -> int

(** {1 Inode operations} *)

val write :
  t -> ino:int -> off:int -> src:Bytes.t -> src_off:int -> len:int ->
  sync:bool -> int

val fsync : t -> ino:int -> unit

(** {1 Namespace}

    The operations below expect the preconditions of
    {!Hinfs_vfs.Backend.S}: the VFS decides every namespace errno. *)

val create_file : t -> dir:int -> string -> int

(** {1 VFS} *)

module Backend : Hinfs_vfs.Backend.S with type t = t

val handle : t -> Hinfs_vfs.Vfs.handle
