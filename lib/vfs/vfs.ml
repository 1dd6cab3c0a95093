(* VFS layer: path walking, file descriptors, per-inode locking, and the
   uniform [handle] record that workloads and benchmarks drive.

   Responsibilities split:
   - backends (PMFS, EXT2/4, HiNFS) implement inode-level operations;
   - this layer implements the syscall surface on top, charges the
     per-syscall software overhead ("Others" in Fig. 1), and does the
     fsync-byte accounting of Fig. 2.

   Locking discipline: a single namespace rwlock orders path walks against
   directory modifications; per-inode rwlocks order data operations (reads
   share, writes/truncate/fsync exclude). The namespace lock is always
   taken before any inode lock. *)

module Rwlock = Hinfs_sim.Rwlock
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Obs = Hinfs_obs.Obs

type fd = int

type handle = {
  fs_name : string;
  open_ : string -> Types.flags -> fd;
  close : fd -> unit;
  read : fd -> Bytes.t -> int -> int;
  pread : fd -> off:int -> Bytes.t -> int -> int;
  write : fd -> Bytes.t -> int -> int;
  pwrite : fd -> off:int -> Bytes.t -> int -> int;
  fsync : fd -> unit;
  fstat : fd -> Types.stat;
  seek : fd -> int -> unit;
  mkdir : string -> unit;
  rmdir : string -> unit;
  unlink : string -> unit;
  rename : string -> string -> unit;
  readdir : string -> (string * int) list;
  stat : string -> Types.stat;
  exists : string -> bool;
  truncate : string -> int -> unit;
  mmap : fd -> unit;
  munmap : fd -> unit;
  msync : fd -> unit;
  sync_all : unit -> unit;
  unmount : unit -> unit;
}

module Make (B : Backend.S) = struct
  type open_file = {
    ino : int;
    flags : Types.flags;
    mutable pos : int;
    path : string;
  }

  type t = {
    fs : B.t;
    fds : (fd, open_file) Hashtbl.t;
    mutable next_fd : int;
    ns_lock : Rwlock.t;
    ino_locks : (int, Rwlock.t) Hashtbl.t;
    open_counts : (int, int) Hashtbl.t;
    dirty_since_sync : (int, int) Hashtbl.t; (* ino -> bytes written since
                                                the last fsync (Fig 2) *)
  }

  let create fs =
    {
      fs;
      fds = Hashtbl.create 64;
      next_fd = 3;
      ns_lock = Rwlock.create ();
      ino_locks = Hashtbl.create 64;
      open_counts = Hashtbl.create 64;
      dirty_since_sync = Hashtbl.create 64;
    }

  let stats t = Device.stats (B.device t.fs)
  let config t = Device.config (B.device t.fs)

  let charge_syscall t =
    Device.charge_ns (B.device t.fs) Stats.Other (config t).Config.syscall_ns

  let ino_lock t ino =
    match Hashtbl.find_opt t.ino_locks ino with
    | Some lock -> lock
    | None ->
      let lock = Rwlock.create () in
      Hashtbl.replace t.ino_locks ino lock;
      lock

  let incr_open t ino =
    let n = Option.value ~default:0 (Hashtbl.find_opt t.open_counts ino) in
    Hashtbl.replace t.open_counts ino (n + 1)

  let decr_open t ino =
    match Hashtbl.find_opt t.open_counts ino with
    | None -> ()
    | Some 1 -> Hashtbl.remove t.open_counts ino
    | Some n -> Hashtbl.replace t.open_counts ino (n - 1)

  let is_open t ino = Hashtbl.mem t.open_counts ino

  let add_dirty t ino n =
    let cur = Option.value ~default:0 (Hashtbl.find_opt t.dirty_since_sync ino) in
    Hashtbl.replace t.dirty_since_sync ino (cur + n)

  let take_dirty t ino =
    match Hashtbl.find_opt t.dirty_since_sync ino with
    | None -> 0
    | Some n ->
      Hashtbl.remove t.dirty_since_sync ino;
      n

  let with_fd t fd f =
    match Hashtbl.find_opt t.fds fd with
    | None -> Errno.raise_error EBADF "fd %d is not open" fd
    | Some file -> f file

  (* Walk directory components from the root; requires the namespace lock
     (read or write) to be held. *)
  let walk_dir t components =
    List.fold_left
      (fun dir name ->
        match B.lookup t.fs ~dir name with
        | None -> Errno.raise_error ENOENT "no such directory %S" name
        | Some ino ->
          let st = B.stat t.fs ~ino in
          if st.Types.kind <> Types.Directory then
            Errno.raise_error ENOTDIR "%S is not a directory" name;
          ino)
      (B.root_ino t.fs) components

  let resolve t path =
    match List.rev (Path.split path) with
    | [] -> B.root_ino t.fs
    | last :: rev_dir -> (
      let dir = walk_dir t (List.rev rev_dir) in
      match B.lookup t.fs ~dir last with
      | Some ino -> ino
      | None -> Errno.raise_error ENOENT "%s does not exist" path)

  let resolve_parent t path =
    let dir_components, name = Path.split_dir path in
    (walk_dir t dir_components, name)

  (* --- syscalls --- *)

  let open_ t path (flags : Types.flags) =
    charge_syscall t;
    let do_open () =
      let dir, name = resolve_parent t path in
      let ino =
        match B.lookup t.fs ~dir name with
        | Some ino ->
          if flags.create && flags.excl then
            Errno.raise_error EEXIST "%s already exists" path;
          let st = B.stat t.fs ~ino in
          if st.Types.kind = Types.Directory && (flags.write || flags.truncate)
          then Errno.raise_error EISDIR "%s is a directory" path;
          if flags.truncate && st.Types.kind = Types.Regular then begin
            let lock = ino_lock t ino in
            Rwlock.with_write lock (fun () -> B.truncate t.fs ~ino ~size:0)
          end;
          ino
        | None ->
          if flags.create then B.create_file t.fs ~dir name
          else Errno.raise_error ENOENT "%s does not exist" path
      in
      ino
    in
    (* Creating/truncating opens take the namespace write lock so that the
       lookup+create pair is atomic. *)
    let ino =
      if flags.create then Rwlock.with_write t.ns_lock do_open
      else Rwlock.with_read t.ns_lock do_open
    in
    let fd = t.next_fd in
    t.next_fd <- fd + 1;
    Hashtbl.replace t.fds fd { ino; flags; pos = 0; path };
    incr_open t ino;
    fd

  let close t fd =
    charge_syscall t;
    with_fd t fd (fun file ->
        Hashtbl.remove t.fds fd;
        decr_open t file.ino)

  (* Every offset and length reaching a backend was checked here. *)
  let check_range ~off buf len =
    if off < 0 then Errno.raise_error EINVAL "negative offset %d" off;
    if len < 0 || len > Bytes.length buf then
      Errno.raise_error EINVAL "bad length %d" len

  let pread_ino t ~ino ~off buf len =
    check_range ~off buf len;
    let lock = ino_lock t ino in
    Rwlock.with_read lock (fun () ->
        let n = B.read t.fs ~ino ~off ~len ~into:buf ~into_off:0 in
        Stats.add_user_read (stats t) n;
        n)

  let pread t fd ~off buf len =
    charge_syscall t;
    with_fd t fd (fun file ->
        if not file.flags.read then
          Errno.raise_error EBADF "fd %d not open for reading" fd;
        pread_ino t ~ino:file.ino ~off buf len)

  let read t fd buf len =
    charge_syscall t;
    with_fd t fd (fun file ->
        if not file.flags.read then
          Errno.raise_error EBADF "fd %d not open for reading" fd;
        let n = pread_ino t ~ino:file.ino ~off:file.pos buf len in
        file.pos <- file.pos + n;
        n)

  let write_ino t ~ino ~off ~sync buf len ~append =
    check_range ~off buf len;
    let lock = ino_lock t ino in
    Rwlock.with_write lock (fun () ->
        let off =
          if append then (B.stat t.fs ~ino).Types.size else off
        in
        let n = B.write t.fs ~ino ~off ~src:buf ~src_off:0 ~len ~sync in
        let st = stats t in
        Stats.add_user_written st n;
        if sync then Stats.add_fsync_bytes st n else add_dirty t ino n;
        (off, n))

  let sync_of t flags = flags.Types.o_sync || B.sync_mount t.fs

  let pwrite t fd ~off buf len =
    charge_syscall t;
    with_fd t fd (fun file ->
        if not file.flags.write then
          Errno.raise_error EBADF "fd %d not open for writing" fd;
        let _off, n =
          write_ino t ~ino:file.ino ~off ~sync:(sync_of t file.flags) buf len
            ~append:false
        in
        n)

  let write t fd buf len =
    charge_syscall t;
    with_fd t fd (fun file ->
        if not file.flags.write then
          Errno.raise_error EBADF "fd %d not open for writing" fd;
        let off, n =
          write_ino t ~ino:file.ino ~off:file.pos
            ~sync:(sync_of t file.flags) buf len ~append:file.flags.append
        in
        file.pos <- off + n;
        n)

  let fsync t fd =
    charge_syscall t;
    with_fd t fd (fun file ->
        let lock = ino_lock t file.ino in
        Rwlock.with_write lock (fun () ->
            B.fsync t.fs ~ino:file.ino;
            let dirty = take_dirty t file.ino in
            Stats.add_fsync_bytes (stats t) dirty))

  let fstat t fd =
    charge_syscall t;
    with_fd t fd (fun file -> B.stat t.fs ~ino:file.ino)

  let seek t fd pos =
    if pos < 0 then Errno.raise_error EINVAL "negative seek";
    with_fd t fd (fun file -> file.pos <- pos)

  let mkdir t path =
    charge_syscall t;
    Rwlock.with_write t.ns_lock (fun () ->
        let dir, name = resolve_parent t path in
        (match B.lookup t.fs ~dir name with
        | Some _ -> Errno.raise_error EEXIST "%s already exists" path
        | None -> ());
        ignore (B.mkdir t.fs ~dir name))

  (* --- namespace outcomes ---

     Every namespace errno of the syscall surface is decided here, under
     the namespace write lock, before the backend is called: backends only
     carry out an operation whose preconditions hold (Backend.S). *)

  let kind t ino = (B.stat t.fs ~ino).Types.kind
  let is_empty_dir t ino = B.readdir t.fs ~dir:ino = []

  (* The inode is leaving the namespace (unlinked, or replaced by a
     rename): its unsynced bytes were never made durable by an fsync, and
     its lock must not pass to a later file that reuses the number. *)
  let drop_victim t ino =
    Hashtbl.remove t.dirty_since_sync ino;
    Hashtbl.remove t.ino_locks ino

  let rmdir t path =
    charge_syscall t;
    Rwlock.with_write t.ns_lock (fun () ->
        let dir, name = resolve_parent t path in
        match B.lookup t.fs ~dir name with
        | None -> Errno.raise_error ENOENT "%s does not exist" path
        | Some ino ->
          if kind t ino <> Types.Directory then
            Errno.raise_error ENOTDIR "%s is not a directory" path;
          if not (is_empty_dir t ino) then
            Errno.raise_error ENOTEMPTY "%s is not empty" path;
          B.rmdir t.fs ~dir name)

  let unlink t path =
    charge_syscall t;
    Rwlock.with_write t.ns_lock (fun () ->
        let dir, name = resolve_parent t path in
        match B.lookup t.fs ~dir name with
        | None -> Errno.raise_error ENOENT "%s does not exist" path
        | Some ino ->
          if kind t ino = Types.Directory then
            Errno.raise_error EISDIR "%s is a directory" path;
          if is_open t ino then
            Errno.raise_error EINVAL
              "%s is still open (deferred deletion unsupported)" path;
          drop_victim t ino;
          B.unlink t.fs ~dir name)

  (* [dst] lies strictly inside [src]. Paths are canonical and directories
     have no hard links, so a component-prefix test is exact. *)
  let rec strictly_below src dst =
    match (src, dst) with
    | [], _ :: _ -> true
    | s :: src, d :: dst -> String.equal s d && strictly_below src dst
    | _ -> false

  (* Rename may replace a file by a file and an empty directory by a
     directory. *)
  let check_replace t ~ino ~victim dst =
    match (kind t ino, kind t victim) with
    | Types.Regular, Types.Directory ->
      Errno.raise_error EISDIR "%s is a directory" dst
    | Types.Directory, Types.Regular ->
      Errno.raise_error ENOTDIR "%s is not a directory" dst
    | Types.Directory, Types.Directory when not (is_empty_dir t victim) ->
      Errno.raise_error ENOTEMPTY "%s is not empty" dst
    | _ -> ()

  let rename t src dst =
    charge_syscall t;
    Rwlock.with_write t.ns_lock (fun () ->
        let src_dir, src_name = resolve_parent t src in
        let dst_dir, dst_name = resolve_parent t dst in
        match B.lookup t.fs ~dir:src_dir src_name with
        | None -> Errno.raise_error ENOENT "%s does not exist" src
        | Some ino ->
          if strictly_below (Path.split src) (Path.split dst) then
            Errno.raise_error EINVAL "cannot move %s into itself (%s)" src dst;
          let victim = B.lookup t.fs ~dir:dst_dir dst_name in
          (* The same inode under both names: nothing to do. *)
          if victim <> Some ino then begin
            Option.iter
              (fun victim ->
                check_replace t ~ino ~victim dst;
                if is_open t victim then
                  Errno.raise_error EINVAL
                    "%s is still open (deferred deletion unsupported)" dst;
                drop_victim t victim)
              victim;
            B.rename t.fs ~src_dir ~src:src_name ~dst_dir ~dst:dst_name
          end)

  let readdir t path =
    charge_syscall t;
    Rwlock.with_read t.ns_lock (fun () ->
        let ino = resolve t path in
        let st = B.stat t.fs ~ino in
        if st.Types.kind <> Types.Directory then
          Errno.raise_error ENOTDIR "%s is not a directory" path;
        B.readdir t.fs ~dir:ino)

  let stat_path t path =
    charge_syscall t;
    Rwlock.with_read t.ns_lock (fun () ->
        let ino = resolve t path in
        B.stat t.fs ~ino)

  let exists t path =
    match stat_path t path with
    | _ -> true
    | exception Errno.Fs_error ((ENOENT | ENOTDIR), _) -> false

  let truncate t path size =
    charge_syscall t;
    if size < 0 then Errno.raise_error EINVAL "negative truncate size";
    let ino =
      Rwlock.with_read t.ns_lock (fun () ->
          let ino = resolve t path in
          let st = B.stat t.fs ~ino in
          if st.Types.kind <> Types.Regular then
            Errno.raise_error EISDIR "%s is not a regular file" path;
          ino)
    in
    let lock = ino_lock t ino in
    Rwlock.with_write lock (fun () -> B.truncate t.fs ~ino ~size)

  let mmap t fd =
    charge_syscall t;
    with_fd t fd (fun file ->
        let lock = ino_lock t file.ino in
        Rwlock.with_write lock (fun () -> B.mmap t.fs ~ino:file.ino))

  let munmap t fd =
    charge_syscall t;
    with_fd t fd (fun file ->
        let lock = ino_lock t file.ino in
        Rwlock.with_write lock (fun () -> B.munmap t.fs ~ino:file.ino))

  let msync t fd =
    charge_syscall t;
    with_fd t fd (fun file ->
        let lock = ino_lock t file.ino in
        Rwlock.with_write lock (fun () -> B.msync t.fs ~ino:file.ino))

  let sync_all t =
    charge_syscall t;
    (* Everything dirty becomes persistent: account it as fsync-covered
       and reset the per-inode dirty counters. *)
    let total = Hashtbl.fold (fun _ n acc -> acc + n) t.dirty_since_sync 0 in
    Hashtbl.reset t.dirty_since_sync;
    Stats.add_fsync_bytes (stats t) total;
    B.sync_all t.fs

  let unmount t =
    B.unmount t.fs;
    Hashtbl.reset t.fds;
    Hashtbl.reset t.open_counts;
    Hashtbl.reset t.dirty_since_sync

  (* Span wrappers, applied once at handle construction: each syscall runs
     inside an [Obs] span named after its op class. The wrappers close the
     span on any exit — normal return, [Errno.Fs_error], or the engine's
     [Stopped] unwind — so span stacks stay balanced on error paths. When
     no sink is installed, the begin/end calls return immediately and the
     fast path allocates nothing. *)

  let spanned1 k f a =
    Obs.span_begin k;
    match f a with
    | v ->
      Obs.span_end k;
      v
    | exception e ->
      Obs.span_end k;
      raise e

  let spanned2 k f a b =
    Obs.span_begin k;
    match f a b with
    | v ->
      Obs.span_end k;
      v
    | exception e ->
      Obs.span_end k;
      raise e

  let spanned3 k f a b c =
    Obs.span_begin k;
    match f a b c with
    | v ->
      Obs.span_end k;
      v
    | exception e ->
      Obs.span_end k;
      raise e

  let handle fs =
    let t = create fs in
    {
      fs_name = B.fs_name fs;
      open_ = spanned2 Obs.Op_open (open_ t);
      close = spanned1 Obs.Op_close (close t);
      read = spanned3 Obs.Op_read (read t);
      pread =
        (fun fd ~off buf len ->
          Obs.span_begin Obs.Op_read;
          match pread t fd ~off buf len with
          | v ->
            Obs.span_end Obs.Op_read;
            v
          | exception e ->
            Obs.span_end Obs.Op_read;
            raise e);
      write = spanned3 Obs.Op_write (write t);
      pwrite =
        (fun fd ~off buf len ->
          Obs.span_begin Obs.Op_write;
          match pwrite t fd ~off buf len with
          | v ->
            Obs.span_end Obs.Op_write;
            v
          | exception e ->
            Obs.span_end Obs.Op_write;
            raise e);
      fsync = spanned1 Obs.Op_fsync (fsync t);
      fstat = spanned1 Obs.Op_stat (fstat t);
      seek = spanned2 Obs.Op_seek (seek t);
      mkdir = spanned1 Obs.Op_mkdir (mkdir t);
      rmdir = spanned1 Obs.Op_rmdir (rmdir t);
      unlink = spanned1 Obs.Op_unlink (unlink t);
      rename = spanned2 Obs.Op_rename (rename t);
      readdir = spanned1 Obs.Op_readdir (readdir t);
      stat = spanned1 Obs.Op_stat (stat_path t);
      exists = spanned1 Obs.Op_exists (exists t);
      truncate = spanned2 Obs.Op_truncate (truncate t);
      mmap = spanned1 Obs.Op_mmap (mmap t);
      munmap = spanned1 Obs.Op_munmap (munmap t);
      msync = spanned1 Obs.Op_msync (msync t);
      sync_all = spanned1 Obs.Op_sync_all (fun () -> sync_all t);
      unmount = spanned1 Obs.Op_unmount (fun () -> unmount t);
    }
end
