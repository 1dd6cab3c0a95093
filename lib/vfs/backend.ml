(* The interface every concrete file system implements.

   Backends are inode-oriented: the VFS does path walking, fd management and
   per-inode locking on top of these operations. All operations run inside a
   simulation process and consume virtual time through the device.

   The VFS decides every namespace outcome (ENOENT, EEXIST, ENOTDIR, EISDIR,
   ENOTEMPTY, and rename's no-op and EINVAL cases) before it calls a
   namespace operation, so a backend only carries out a valid one: [dir] is
   a live directory, a created name is absent, and a removed or renamed
   entry is present with the kind the operation expects. A missing entry is
   a broken precondition ([Invalid_argument]), not an errno. Backends still
   raise the fault and format outcomes: EROFS, ENOSPC, EIO, and EINVAL for
   an over-long name. *)

module type S = sig
  type t

  val fs_name : t -> string

  val device : t -> Hinfs_nvmm.Device.t
  (** The underlying NVMM device (timing, stats, engine). *)

  val sync_mount : t -> bool
  (** Mounted with the sync option: all writes are eager-persistent. *)

  val root_ino : t -> int

  (** {1 Namespace} *)

  val lookup : t -> dir:int -> string -> int option
  (** Find a name in a directory inode. *)

  val create_file : t -> dir:int -> string -> int
  (** Create an empty regular file under an absent name; returns its inode
      number. @raise Errno.Fs_error ENOSPC *)

  val mkdir : t -> dir:int -> string -> int
  (** Create an empty directory under an absent name. *)

  val unlink : t -> dir:int -> string -> unit
  (** Remove an existing regular file's entry (drops its data). *)

  val rmdir : t -> dir:int -> string -> unit
  (** Remove an existing empty directory. *)

  val rename : t -> src_dir:int -> src:string -> dst_dir:int -> dst:string -> unit
  (** Move an existing entry. [src] and [dst] name different inodes; the
      destination, if present, is a victim the VFS allows to be replaced (a
      file by a file, an empty directory by a directory), which the backend
      releases. *)

  val readdir : t -> dir:int -> (string * int) list

  (** {1 Inode operations} *)

  val stat : t -> ino:int -> Types.stat

  val read : t -> ino:int -> off:int -> len:int -> into:Bytes.t -> into_off:int -> int
  (** Returns the number of bytes read (0 at or past EOF). *)

  val write :
    t -> ino:int -> off:int -> src:Bytes.t -> src_off:int -> len:int ->
    sync:bool -> int
  (** [sync] marks the write eager-persistent (O_SYNC or sync mount).
      Returns bytes written. @raise Errno.Fs_error ENOSPC *)

  val truncate : t -> ino:int -> size:int -> unit
  val fsync : t -> ino:int -> unit

  (** {1 Memory-mapped I/O} *)

  val mmap : t -> ino:int -> unit
  (** Prepare the inode for direct mapping (HiNFS: flush its buffered blocks
      and pin them Eager-Persistent until {!munmap}). *)

  val munmap : t -> ino:int -> unit
  val msync : t -> ino:int -> unit

  (** {1 Mount lifecycle} *)

  val sync_all : t -> unit
  (** Persist everything buffered (called by unmount and sync()). *)

  val unmount : t -> unit
end
