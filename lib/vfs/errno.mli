(** POSIX-flavoured file system error codes.

    Fault-domain contract: backends with per-shard fault domains scope
    these errors to the failing domain, not the mount. A mutation landing
    in a degraded domain raises [EROFS] before any state is touched, while
    reads and fsync are still served; an uncorrectable media error on the
    data path raises [EIO]. Ops on healthy sibling domains of the same
    mount must keep succeeding; only a mount-scoped fault (superblock,
    whole-mount degradation on unsharded backends) makes every mutation
    raise [EROFS].

    Stale-handle contract: [ESTALE] is raised only by serving layers that
    hand out identity tokens outliving a single syscall (the lib/server
    file-handle table). A handle goes permanently stale when the object it
    named stops being that object: the path was unlinked (even if later
    re-created — the re-creation carries a fresh generation) or the path
    was renamed over. Revalidation must fail with [ESTALE] {e before}
    touching any inode state, so a stale handle can never read or mutate
    whichever unrelated inode now holds its old inode number; the client's
    recovery is a fresh LOOKUP. *)

type t =
  | ENOENT
  | EEXIST
  | EISDIR
  | ENOTDIR
  | ENOSPC
  | EBADF
  | EINVAL
  | ENOTEMPTY
  | EFBIG
  | EROFS  (** mutation into a read-only mount or degraded fault domain *)
  | EIO  (** uncorrectable media error *)
  | ESTALE  (** file handle outlived the object it named (see above) *)

exception Fs_error of t * string

val to_string : t -> string

val raise_error : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [raise_error code fmt ...] raises {!Fs_error} with a formatted message. *)
