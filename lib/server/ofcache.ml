(* Bounded open-file cache: the server's fd table.

   Clients never hold fds — READ/WRITE resolve their file handle to an
   inode and borrow an open from this cache, opening on demand and
   evicting least-recently-used entries once the cap is reached. Entries
   carrying unstable (COMMIT-pending) writes are flushed on eviction so
   bounded capacity never silently weakens durability.

   Failure discipline: the flush-on-evict fsync is attempted exactly
   once. If it fails we drop the entry (the fd is closed regardless) and
   let the error propagate to whichever request forced the eviction — no
   retry loop against a backend that has already refused the flush. *)

module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno
module Obs = Hinfs_obs.Obs
module Lru = Hinfs_structures.Lru

type entry = {
  fd : Vfs.fd;
  ino : int;
  mutable dirty : bool; (* unstable writes since the last flush *)
  mutable last_sid : int; (* most recent session to use this open *)
  mutable pins : int; (* workers mid-request on this fd; pinned entries
                         are never evicted or reclaimed under them *)
}

type t = {
  vfs : Vfs.handle;
  cap : int;
  lru : (int, entry) Lru.t; (* keyed by ino *)
  mutable evictions : int;
  mutable hits : int;
  mutable misses : int;
}

let create vfs ~cap =
  if cap <= 0 then invalid_arg "Ofcache.create: cap must be > 0";
  { vfs; cap; lru = Lru.create (); evictions = 0; hits = 0; misses = 0 }

let length t = Lru.length t.lru
let evictions t = t.evictions
let hits t = t.hits
let misses t = t.misses

(* Close an entry, flushing first when it still carries unstable writes.
   The fd is always closed and the entry is gone on return or raise; a
   flush failure propagates after the close — fail fast, never retry. *)
let close_entry t (e : entry) ~flush =
  let flush_exn =
    if flush && e.dirty then begin
      Obs.span_begin Obs.Srv_flush;
      match t.vfs.Vfs.fsync e.fd with
      | () ->
        Obs.span_end Obs.Srv_flush;
        e.dirty <- false;
        None
      | exception ex ->
        Obs.span_end Obs.Srv_flush;
        Some ex
    end
    else None
  in
  (try t.vfs.Vfs.close e.fd with Errno.Fs_error _ -> ());
  match flush_exn with None -> () | Some ex -> raise ex

(* Evict LRU-first until below cap, considering only unpinned entries.
   With every entry pinned (cap below the worker count) the cache runs
   transiently over cap — bounded by cap + in-flight requests — rather
   than closing an fd some worker is mid-request on. *)
let evict_until_room t =
  let evictable () = Lru.find_lru_matching t.lru (fun _ e -> e.pins = 0) in
  let rec loop () =
    if Lru.length t.lru >= t.cap then
      match evictable () with
      | None -> ()
      | Some (ino, e) ->
        ignore (Lru.remove t.lru ino);
        t.evictions <- t.evictions + 1;
        Obs.instant Obs.Ev_oc_evict ~a:e.ino ~b:(if e.dirty then 1 else 0);
        close_entry t e ~flush:true;
        loop ()
  in
  loop ()

(* Insert an already-open fd (the CREATE path, where the ino is only
   known after the open). Returns the canonical fd: if the ino is already
   cached — CREATE without O_EXCL over an existing file — the new fd is
   closed and the cached open is reused. *)
let insert t ~ino ~fd ~sid =
  match Lru.find t.lru ino with
  | Some e ->
    ignore (Lru.touch t.lru ino);
    e.last_sid <- sid;
    if fd <> e.fd then (try t.vfs.Vfs.close fd with Errno.Fs_error _ -> ());
    e.fd
  | None ->
    evict_until_room t;
    Lru.add t.lru ino { fd; ino; dirty = false; last_sid = sid; pins = 0 };
    fd

(* Borrow the open for [ino] — pinned until [release] — opening [path]
   read-write on demand. *)
let acquire t ~ino ~path ~sid =
  match Lru.find t.lru ino with
  | Some e ->
    t.hits <- t.hits + 1;
    ignore (Lru.touch t.lru ino);
    e.last_sid <- sid;
    e.pins <- e.pins + 1;
    e.fd
  | None ->
    t.misses <- t.misses + 1;
    evict_until_room t;
    let fd = t.vfs.Vfs.open_ path Types.rdwr in
    let cached_ino = (t.vfs.Vfs.fstat fd).Types.ino in
    if cached_ino <> ino then begin
      (* the path stopped naming this inode out from under the handle *)
      (try t.vfs.Vfs.close fd with Errno.Fs_error _ -> ());
      Errno.raise_error ESTALE "open of %s found ino %d, handle has %d" path
        cached_ino ino
    end;
    Lru.add t.lru ino { fd; ino; dirty = false; last_sid = sid; pins = 1 };
    fd

let release t ino =
  match Lru.find t.lru ino with
  | None -> ()
  | Some e -> if e.pins > 0 then e.pins <- e.pins - 1

(* Run [f fd] with the entry pinned; the canonical way to use the cache
   from a request. *)
let with_open t ~ino ~path ~sid f =
  let fd = acquire t ~ino ~path ~sid in
  Fun.protect ~finally:(fun () -> release t ino) (fun () -> f fd)

let mark_dirty t ino =
  match Lru.find t.lru ino with None -> () | Some e -> e.dirty <- true

let clear_dirty t ino =
  match Lru.find t.lru ino with None -> () | Some e -> e.dirty <- false

(* COMMIT: flush the cached open's unstable writes, if any. Pinned for
   the duration so a concurrent eviction can't close the fd mid-fsync. *)
let commit t ino =
  match Lru.find t.lru ino with
  | None -> () (* nothing cached: no unstable writes outstanding *)
  | Some e ->
    if e.dirty then begin
      e.pins <- e.pins + 1;
      Obs.span_begin Obs.Srv_flush;
      (match t.vfs.Vfs.fsync e.fd with
      | () ->
        Obs.span_end Obs.Srv_flush;
        e.pins <- e.pins - 1
      | exception ex ->
        Obs.span_end Obs.Srv_flush;
        e.pins <- e.pins - 1;
        raise ex);
      e.dirty <- false
    end

(* Drop the entry without counting it as a capacity eviction — used when
   the object is going away (REMOVE, rename-over, rollback). [flush]
   is false there: flushing into a tree that is being deleted or replaced
   would be wasted (or worse, wrong). A pinned entry is left alone — the
   caller's VFS operation will then refuse the still-open inode itself. *)
let drop t ~ino ~flush =
  match Lru.find t.lru ino with
  | None -> ()
  | Some e ->
    if e.pins = 0 then begin
      ignore (Lru.remove t.lru ino);
      close_entry t e ~flush
    end

let drop_all t =
  let entries = ref [] in
  Lru.iter t.lru (fun _ e -> if e.pins = 0 then entries := e :: !entries);
  List.iter
    (fun e ->
      ignore (Lru.remove t.lru e.ino);
      close_entry t e ~flush:false)
    (List.rev !entries)

(* Lease expiry: evict everything the lapsed session was the last to use
   and nobody is mid-request on. Flush errors are swallowed after the
   entry is dropped — the reaper acts for no live request, so there is
   nobody to answer EIO to. *)
let reclaim_session t sid =
  let victims = ref [] in
  Lru.iter t.lru (fun ino e ->
      if e.last_sid = sid && e.pins = 0 then victims := ino :: !victims);
  List.iter
    (fun ino ->
      match Lru.find t.lru ino with
      | None -> ()
      | Some e when e.pins = 0 ->
        ignore (Lru.remove t.lru ino);
        t.evictions <- t.evictions + 1;
        Obs.instant Obs.Ev_oc_evict ~a:e.ino ~b:(if e.dirty then 1 else 0);
        (try close_entry t e ~flush:true with Errno.Fs_error _ -> ())
      | Some _ -> ())
    (List.rev !victims);
  List.length !victims
