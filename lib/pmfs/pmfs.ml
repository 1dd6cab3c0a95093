(* PMFS: the direct-access NVMM file system baseline (Dulloor et al.,
   EuroSys'14), re-implemented on the device model.

   Data path: user data is copied straight between the user buffer and NVMM
   with non-temporal stores (PMFS's copy_from_user_inatomic_nocache), so
   every write pays NVMM latency in the critical path — the overhead HiNFS
   attacks. Reads are direct loads.

   Metadata: journaled at cacheline granularity through the undo log;
   single-field updates (mtime on a non-extending write) use 8-byte atomic
   in-place stores instead of a transaction, as PMFS does.

   This module is also the persistent substrate of HiNFS, which layers the
   DRAM write buffer on top of the same format (paper §4: "HiNFS is
   implemented based on PMFS"). The [Data] section exposes the lower-level
   operations HiNFS needs. *)

module Device = Hinfs_nvmm.Device
module Allocator = Hinfs_nvmm.Allocator
module Fault = Hinfs_nvmm.Fault
module Log = Hinfs_journal.Cacheline_log
module Stats = Hinfs_stats.Stats
module Engine = Hinfs_sim.Engine
module Errno = Hinfs_vfs.Errno
module Obs = Hinfs_obs.Obs

type t = {
  ctx : Fs_ctx.t;
  mutable mounted : bool;
  recovered_txns : int;
  recovered_by_shard : int array; (* rolled-back txns per shard journal *)
  mutable mount_fault : string option; (* first fault on the mount domain *)
  shard_faults : string option array; (* first fault per shard domain *)
  failed_repairs : int array; (* per repair domain, see [domain_fault] *)
}

let ctx t = t.ctx
let geometry t = t.ctx.Fs_ctx.geo
let device t = t.ctx.Fs_ctx.device

(* Shard 0's journal: the only journal when shards = 1, and the
   conventional home for mount-scoped bookkeeping otherwise. Per-inode
   operations must use [log_for]. *)
let log t = (Fs_ctx.shard t.ctx 0).Fs_ctx.log
let log_for t ~ino = Fs_ctx.log_for t.ctx ~ino
let shard_count t = Fs_ctx.shard_count t.ctx
let shard_of_ino t ino = Fs_ctx.shard_of_ino t.ctx ino
let epoch t = Fs_ctx.epoch t.ctx
let recovered_txns t = t.recovered_txns
let recovered_by_shard t = Array.copy t.recovered_by_shard
let free_data_blocks t = Fs_ctx.free_data_blocks t.ctx

(* Crash-fixture sabotage: when set, cross-shard renames commit each
   shard's transaction independently instead of through the epoch record,
   recreating the torn-rename window the epoch protocol exists to close.
   Used by crashmc vacuity fixtures only. *)
let sabotage_skip_epoch = ref false
let set_sabotage_skip_epoch v = sabotage_skip_epoch := v

(* --- graceful degradation (per fault domain) ---

   An unrecoverable metadata fault must not abort the machine: it degrades
   the fault domain that owns it. Each shard of a sharded mount is a domain
   (its journal sub-region, allocator ranges, inode range); the mount
   domain holds what no shard owns (superblock, epoch record) and is the
   only domain of an unsharded mount. A domain is healthy or degraded, and
   a degraded domain keeps the reason of its first fault. It still serves
   reads and fsync (DRAM or replicas may hold the only good copy) but
   rejects mutations with EROFS until a repair pass re-admits it. *)

(* Whole-mount view, unchanged for shards = 1: [read_only] means no write
   anywhere can succeed. *)
let read_only t = t.mount_fault <> None
let read_only_reason t = t.mount_fault

(* Any domain unhealthy: the image must not be certified clean. *)
let fully_healthy t =
  t.mount_fault = None && Array.for_all Option.is_none t.shard_faults

let degrade t reason =
  if t.mount_fault = None then t.mount_fault <- Some reason

(* Sharded mounts degrade just the shard; an unsharded mount is its own
   only domain. *)
let degrade_shard t s reason =
  if shard_count t = 1 then degrade t reason
  else if t.shard_faults.(s) = None then t.shard_faults.(s) <- Some reason

(* Repair domains are numbered like shards: domain [s] is shard [s] of a
   sharded mount, and domain 0 of an unsharded mount is the mount. *)
let domain_fault t s =
  if shard_count t > 1 then t.shard_faults.(s) else t.mount_fault

let failed_repairs t s = t.failed_repairs.(s)

let end_repair t s ~ok =
  if ok then begin
    t.failed_repairs.(s) <- 0;
    if shard_count t > 1 then t.shard_faults.(s) <- None
    else t.mount_fault <- None
  end
  else t.failed_repairs.(s) <- t.failed_repairs.(s) + 1

(* Writes need the mount and the inode's home shard both healthy. *)
let check_writable_ino t ~ino =
  match t.mount_fault with
  | Some r -> Errno.raise_error EROFS "mount is read-only: %s" r
  | None -> (
    let s = shard_of_ino t ino in
    match t.shard_faults.(s) with
    | None -> ()
    | Some r -> Errno.raise_error EROFS "shard%d is read-only: %s" s r)

(* Which shard owns a faulting byte address, for blast-radius attribution:
   journal sub-regions, inode-table slots, and data blocks all map to a
   shard; superblock / epoch-record / index addresses do not. *)
let shard_of_addr t addr =
  let geo = geometry t in
  let bs = geo.Layout.block_size in
  let block = addr / bs in
  if block >= geo.Layout.data_start && block < geo.Layout.data_end then
    Some (Layout.shard_of_block geo block)
  else if
    block >= geo.Layout.itable_start
    && block < geo.Layout.itable_start + geo.Layout.itable_blocks
  then Option.map (Layout.shard_of_ino geo) (Layout.Inode.ino_of_addr geo addr)
  else if block >= geo.Layout.journal_start
          && block < geo.Layout.journal_start + geo.Layout.journal_blocks
  then begin
    let per = geo.Layout.journal_blocks / geo.Layout.shards in
    if per = 0 then None
    else Some (min ((block - geo.Layout.journal_start) / per)
                 (geo.Layout.shards - 1))
  end
  else None

(* Transient media faults are retried ({!Device.read_retrying}).
   Unrecoverable (poisoned-line) faults degrade the owning fault domain and
   surface as EIO on the data path; a repair pass
   ([Hinfs_fsck.Repair.run_once]) can re-admit the domain. *)
let read_or_eio t ~cat ~addr ~len ~into ~off =
  try
    Device.read_retrying (device t) ~cat ~addr ~len ~into ~off
  with Fault.Media_error { addr = fault_addr; _ } ->
    (match shard_of_addr t fault_addr with
    | Some s ->
      degrade_shard t s
        (Fmt.str "uncorrectable media error at %#x" fault_addr)
    | None ->
      degrade t (Fmt.str "uncorrectable media error at %#x" fault_addr));
    Errno.raise_error EIO "uncorrectable NVMM media error at %#x" fault_addr

let now t = Engine.now (Device.engine (device t))

(* --- mkfs / mount --- *)

let mkfs device ?journal_blocks ?shards () =
  let config = Device.config device in
  let geo = Layout.geometry_of_config ?journal_blocks ?shards config in
  (* Zero the metadata regions. *)
  let zero = Bytes.make geo.Layout.block_size '\000' in
  for b = 0 to geo.Layout.data_start - 1 do
    Device.poke device
      ~addr:(b * geo.Layout.block_size)
      ~src:zero ~off:0 ~len:geo.Layout.block_size
  done;
  (* Root directory inode. *)
  let root =
    Media.Inode.encode ~kind:Media.Inode.kind_directory ~links:2 ~mtime:0L
  in
  Device.poke device
    ~addr:(geo.Layout.itable_start * geo.Layout.block_size)
    ~src:root ~off:0 ~len:Media.inode_size;
  Layout.write_superblock device geo ~clean:true

(* Rebuild DRAM allocation state by walking the live inode trees (PMFS
   keeps its free lists volatile and reconstructs them at mount). *)
let rebuild_allocators ctx =
  let device = ctx.Fs_ctx.device in
  let geo = ctx.Fs_ctx.geo in
  for ino = 1 to geo.Layout.inode_count do
    if Layout.Inode.in_use device geo ino then begin
      Fs_ctx.mark_ino_allocated ctx ino;
      Block_tree.iter_blocks ctx ~ino (fun _fblock block ->
          Fs_ctx.mark_block_allocated ctx block);
      Block_tree.iter_index_nodes ctx ~ino (fun block ->
          Fs_ctx.mark_block_allocated ctx block)
    end
  done

(* Mount-time poison sweep: a poisoned cacheline inside a live inode's
   slot means metadata we can neither trust nor rebuild — there is no
   replica of the inode table. That is the unrecoverable rung of the
   degradation ladder. The damage is attributed per shard (the inode range
   is partitioned), so on a sharded mount only the owning shard degrades.
   Poison over free inode slots is harmless here (the scrubber zeroes
   it). Returns [(shard, reason)] pairs. *)
let itable_poison_reasons device geo =
  let bs = geo.Layout.block_size in
  let itable_addr = geo.Layout.itable_start * bs in
  let itable_len = geo.Layout.itable_blocks * bs in
  let bad =
    List.filter_map
      (fun addr ->
        match Layout.Inode.ino_of_addr geo addr with
        | Some ino when Layout.Inode.in_use device geo ino -> Some ino
        | _ -> None)
      (Device.verify_range device ~addr:itable_addr ~len:itable_len)
    |> List.sort_uniq compare
  in
  let by_shard = Hashtbl.create 4 in
  List.iter
    (fun ino ->
      let s = Layout.shard_of_ino geo ino in
      Hashtbl.replace by_shard s
        (ino :: (try Hashtbl.find by_shard s with Not_found -> [])))
    bad;
  Hashtbl.fold
    (fun s inos acc ->
      let inos = List.rev inos in
      ( s,
        Fmt.str "poisoned inode table (inode%s %a)"
          (if List.length inos = 1 then "" else "s")
          Fmt.(list ~sep:comma int)
          inos )
      :: acc)
    by_shard []
  |> List.sort compare

let mount device ?(journal_cleaner = false) () =
  match Layout.read_superblock device with
  | `Absent -> Errno.raise_error EINVAL "no PMFS superblock on device"
  | `Corrupt ->
    (* Both superblock copies damaged (poison or checksum failure): the
       device is formatted but unreadable. Failing with EIO — rather than
       guessing a geometry — is the only honest answer; a bogus mount
       would corrupt whatever is still recoverable offline. *)
    Errno.raise_error EIO "both superblock copies are corrupt"
  | `Ok (geo, clean) ->
    let nshards = geo.Layout.shards in
    (* The epoch watermark must be read before any journal is recovered:
       it decides which epoch-commit entries count as committed in every
       shard's region. *)
    let committed_epoch =
      if clean then 0
      else
        Hinfs_journal.Epoch.read_committed device
          ~block:(Layout.epoch_block geo)
    in
    let recoveries =
      Array.init nshards (fun s ->
          if clean then { Log.rolled_back = 0; dropped = 0 }
          else begin
            let first_block, blocks = Layout.journal_region geo s in
            Log.recover device ~committed_epoch ~first_block ~blocks ()
          end)
    in
    let rolled_back =
      Array.fold_left (fun acc r -> acc + r.Log.rolled_back) 0 recoveries
    in
    let dropped =
      Array.fold_left (fun acc r -> acc + r.Log.dropped) 0 recoveries
    in
    if not clean then
      Stats.add_recovery (Device.stats device) ~rolled_back ~dropped;
    (* Reset the epoch record only after recovery consumed the watermark:
       the new generation's epochs restart at 1. *)
    let epoch =
      Hinfs_journal.Epoch.create device ~block:(Layout.epoch_block geo)
    in
    let shards =
      Array.init nshards (fun s ->
          let jfirst, jblocks = Layout.journal_region geo s in
          let ifirst, icount = Layout.inode_range geo s in
          let dfirst, dcount = Layout.data_range geo s in
          {
            Fs_ctx.log = Log.create device ~first_block:jfirst ~blocks:jblocks;
            balloc =
              Allocator.create ~policy:Lowest_free ~first_block:dfirst
                ~count:dcount;
            ialloc =
              Allocator.create ~policy:Lowest_free ~first_block:ifirst
                ~count:icount;
          })
    in
    let ctx = { Fs_ctx.device; geo; shards; epoch; rr_next = 0 } in
    Fs_ctx.iter_shards ctx (fun _ sh ->
        Log.set_reclaim sh.Fs_ctx.log (Fs_ctx.free ctx));
    rebuild_allocators ctx;
    Layout.write_superblock device geo ~clean:false;
    if journal_cleaner then
      Fs_ctx.iter_shards ctx (fun _ sh -> Log.start_cleaner sh.Fs_ctx.log);
    let t =
      {
        ctx;
        mounted = true;
        recovered_txns = rolled_back;
        recovered_by_shard = Array.map (fun r -> r.Log.rolled_back) recoveries;
        mount_fault = None;
        shard_faults = Array.make nshards None;
        failed_repairs = Array.make nshards 0;
      }
    in
    (* Dropped (untrusted) journal records degrade only the shard whose
       sub-region held them: each shard's journal covers that shard's
       metadata, so siblings stay read-write. *)
    Array.iteri
      (fun s r ->
        if r.Log.dropped > 0 then
          degrade_shard t s
            (Fmt.str "%d untrusted journal record(s) dropped during recovery"
               r.Log.dropped))
      recoveries;
    List.iter
      (fun (s, reason) -> degrade_shard t s reason)
      (itable_poison_reasons device geo);
    t

let mkfs_and_mount device ?journal_blocks ?shards ?journal_cleaner () =
  mkfs device ?journal_blocks ?shards ();
  mount device ?journal_cleaner ()

(* Wire an operation-level fault injector into every software resource
   path of this mount: data-block allocation, inode allocation, and
   journal-slot allocation. [None] detaches. *)
let attach_faultops t fo =
  let module Faultops = Hinfs_nvmm.Faultops in
  let hook kind =
    match fo with
    | None -> None
    | Some fo -> Some (fun () -> Faultops.check fo kind)
  in
  Fs_ctx.iter_shards t.ctx (fun _ sh ->
      Allocator.set_fault_injector sh.Fs_ctx.balloc (hook Faultops.Block_alloc);
      Allocator.set_fault_injector sh.Fs_ctx.ialloc (hook Faultops.Inode_alloc);
      Log.set_fault_injector sh.Fs_ctx.log (hook Faultops.Journal_slot))

(* --- inode helpers --- *)

let check_ino t ino =
  let geo = geometry t in
  if ino < 1 || ino > geo.Layout.inode_count
     || not (Layout.Inode.in_use (device t) geo ino)
  then Errno.raise_error EBADF "bad inode %d" ino

let inode_size t ino = Layout.Inode.size (device t) (geometry t) ino

let stat_of t ino =
  check_ino t ino;
  Media.Inode.stat (device t) ~ino (Layout.Inode.addr (geometry t) ino)

(* --- Data: lower-level operations shared with HiNFS --- *)

module Data = struct
  let block_addr t block = Fs_ctx.block_addr t.ctx block

  let lookup_block t ~ino ~fblock = Block_tree.lookup t.ctx ~ino ~fblock

  (* Find-or-allocate the NVMM home block for [fblock] inside [txn];
     zero-filling a fresh block's uncovered range is the caller's job.
     Updates the inode's block count. The blocks the call allocated (index
     nodes + data) are owned by [txn] before the block-count journaling
     below, which can itself fail mid-op (journal exhaustion, injected
     fault): an abort reclaims them even when this call raises. *)
  let ensure_block t txn ~ino ~fblock =
    let block, fresh = Block_tree.ensure t.ctx txn ~ino ~fblock in
    if fresh then begin
      let device = device t in
      let geo = geometry t in
      let addr = Layout.Inode.addr geo ino + Media.Inode.blocks_off in
      Log.log (log_for t ~ino) txn ~addr ~len:8;
      Layout.Inode.set_blocks device ~cat:Stats.Other geo ino
        (Layout.Inode.blocks device geo ino + 1)
    end;
    (block, fresh)

  (* Journaled size + mtime update. *)
  let update_size t txn ~ino ~size =
    let device = device t in
    let geo = geometry t in
    let addr = Layout.Inode.addr geo ino + Media.Inode.size_off in
    Log.log (log_for t ~ino) txn ~addr ~len:8;
    Layout.Inode.set_size device ~cat:Stats.Other geo ino size

  (* 8-byte atomic mtime update: no transaction needed (PMFS-style). *)
  let touch_mtime_atomic t ~ino =
    let device = device t in
    let geo = geometry t in
    let addr = Layout.Inode.addr geo ino + Media.Inode.mtime_off in
    Device.set_u64 device ~cat:Stats.Other addr (now t);
    Device.clflush device ~cat:Stats.Other ~addr ~len:8

  let touch_mtime_txn t txn ~ino =
    let device = device t in
    let geo = geometry t in
    let addr = Layout.Inode.addr geo ino + Media.Inode.mtime_off in
    Log.log (log_for t ~ino) txn ~addr ~len:8;
    Layout.Inode.set_mtime device ~cat:Stats.Other geo ino (now t)

  (* Zero the uncovered parts of a freshly allocated data block so that
     reads below EOF never observe stale medium contents. *)
  let zero_fresh_block ?(background = false) t ~cat ~block ~covered_start
      ~covered_end =
    let geo = geometry t in
    let bs = geo.Layout.block_size in
    let base = block_addr t block in
    if covered_start > 0 then
      Device.zero_nt ~background (device t) ~cat ~addr:base
        ~len:covered_start;
    if covered_end < bs then
      Device.zero_nt ~background (device t) ~cat ~addr:(base + covered_end)
        ~len:(bs - covered_end)
end

(* --- file read/write --- *)

let read t ~ino ~off ~len ~into ~into_off =
  check_ino t ino;
  let geo = geometry t in
  let bs = geo.Layout.block_size in
  let size = inode_size t ino in
  let len = if off >= size then 0 else min len (size - off) in
  let cat = Stats.Read_access in
  let rec copy done_ =
    if done_ < len then begin
      let pos = off + done_ in
      let fblock = pos / bs in
      let in_block = pos mod bs in
      let chunk = min (bs - in_block) (len - done_) in
      (match Data.lookup_block t ~ino ~fblock with
      | Some block ->
        read_or_eio t ~cat
          ~addr:(Data.block_addr t block + in_block)
          ~len:chunk ~into ~off:(into_off + done_)
      | None ->
        (* Hole: reads as zeros, still a memcpy's worth of work. *)
        Bytes.fill into (into_off + done_) chunk '\000';
        Device.charge_memcpy (device t) cat `Read chunk);
      copy (done_ + chunk)
    end
  in
  copy 0;
  len

(* Direct write with non-temporal stores; used by PMFS writes, by HiNFS
   eager-persistent writes, and (with [background = true]) by the HiNFS
   writeback daemons. *)
let write_direct ?(background = false) ?(cat = Stats.Write_access) t ~ino ~off
    ~src ~src_off ~len =
  check_writable_ino t ~ino;
  check_ino t ino;
  let geo = geometry t in
  let bs = geo.Layout.block_size in
  let size = inode_size t ino in
  let log = log_for t ~ino in
  let txn_ref = ref None in
  let get_txn () =
    match !txn_ref with
    | Some txn -> txn
    | None ->
      let txn = Log.begin_txn log in
      txn_ref := Some txn;
      txn
  in
  let rec copy done_ =
    if done_ < len then begin
      let pos = off + done_ in
      let fblock = pos / bs in
      let in_block = pos mod bs in
      let chunk = min (bs - in_block) (len - done_) in
      let block =
        match Data.lookup_block t ~ino ~fblock with
        | Some block -> block
        | None ->
          let block, fresh =
            Data.ensure_block t (get_txn ()) ~ino ~fblock
          in
          if fresh then
            Data.zero_fresh_block ~background t ~cat ~block
              ~covered_start:in_block ~covered_end:(in_block + chunk);
          block
      in
      Device.write_nt ~background (device t) ~cat
        ~addr:(Data.block_addr t block + in_block)
        ~src ~off:(src_off + done_) ~len:chunk;
      copy (done_ + chunk)
    end
  in
  (try
     copy 0;
     (* Data is persistent (non-temporal); order it before metadata. *)
     Device.mfence (device t) ~cat;
     let new_size = max size (off + len) in
     (if new_size <> size then begin
        let txn = get_txn () in
        Data.update_size t txn ~ino ~size:new_size;
        Data.touch_mtime_txn t txn ~ino
      end
      else
        match !txn_ref with
        | Some txn -> Data.touch_mtime_txn t txn ~ino
        | None -> Data.touch_mtime_atomic t ~ino);
     (match !txn_ref with Some txn -> Log.commit log txn | None -> ())
   with e ->
     (* Mid-op failure (ENOSPC, journal exhaustion, injected fault): the
        abort rolls the metadata back and reclaims every block this write
        allocated, so a failed write leaks nothing. Data already streamed
        into those blocks becomes unreachable with them. *)
     (match !txn_ref with
     | Some txn when not (Log.txn_committed txn) -> Log.abort log txn
     | _ -> ());
     raise e);
  len

let write t ~ino ~off ~src ~src_off ~len ~sync =
  (* PMFS persists every write eagerly; [sync] changes nothing. *)
  ignore sync;
  write_direct t ~ino ~off ~src ~src_off ~len

let truncate t ~ino ~size =
  check_writable_ino t ~ino;
  check_ino t ino;
  let geo = geometry t in
  let bs = geo.Layout.block_size in
  let old_size = inode_size t ino in
  if size <> old_size then
    Log.with_txn (log_for t ~ino) (fun txn ->
        if size < old_size then begin
          let keep_blocks = (size + bs - 1) / bs in
          let released = Block_tree.free_from t.ctx txn ~ino ~keep_blocks in
          let device = device t in
          let addr = Layout.Inode.addr geo ino + Media.Inode.blocks_off in
          Log.log (log_for t ~ino) txn ~addr ~len:8;
          Layout.Inode.set_blocks device ~cat:Stats.Other geo ino
            (Layout.Inode.blocks device geo ino - released);
          (* Zero the tail of the last kept block so a later size extension
             cannot expose stale bytes. *)
          let tail = size mod bs in
          if tail <> 0 then begin
            match Data.lookup_block t ~ino ~fblock:(size / bs) with
            | None -> ()
            | Some block ->
              Device.zero_nt device ~cat:Stats.Other
                ~addr:(Data.block_addr t block + tail)
                ~len:(bs - tail)
          end
        end;
        Data.update_size t txn ~ino ~size;
        Data.touch_mtime_txn t txn ~ino)

let fsync t ~ino =
  check_ino t ino;
  (* All PMFS data and committed metadata are already persistent; fsync
     reduces to an ordering fence. *)
  Device.mfence (device t) ~cat:Stats.Other

(* --- namespace --- *)

let lookup t ~dir name =
  check_ino t dir;
  Dir.lookup t.ctx ~dir name

(* The entry a namespace operation acts on. The VFS has already decided
   every namespace outcome (Backend.S), so a missing entry is a broken
   precondition, not an errno. *)
let entry t ~dir name =
  match Dir.lookup t.ctx ~dir name with
  | Some ino -> ino
  | None -> Fmt.invalid_arg "Pmfs: no entry %S in directory %d" name dir

(* Journal and initialise a fresh inode's on-media fields inside [txn].
   [log] is the journal [txn] was begun on — the parent directory's, which
   may differ from the fresh inode's home shard when allocation borrowed
   from another range; undo entries carry absolute addresses, so recovery
   is indifferent to which shard's journal holds them. *)
let init_inode t log txn ~ino ~kind =
  let device = device t in
  let geo = geometry t in
  let addr = Layout.Inode.addr geo ino in
  Log.log log txn ~addr ~len:40;
  Layout.Inode.set_in_use device ~cat:Stats.Other geo ino true;
  Layout.Inode.set_kind device ~cat:Stats.Other geo ino kind;
  Layout.Inode.set_links device ~cat:Stats.Other geo ino
    (if kind = Media.Inode.kind_directory then 2 else 1);
  Layout.Inode.set_height device ~cat:Stats.Other geo ino 0;
  Layout.Inode.set_size device ~cat:Stats.Other geo ino 0;
  Layout.Inode.set_tree_root device ~cat:Stats.Other geo ino 0;
  Layout.Inode.set_mtime device ~cat:Stats.Other geo ino (now t);
  Layout.Inode.set_blocks device ~cat:Stats.Other geo ino 0

let create_entry t ~dir name ~kind =
  check_writable_ino t ~ino:dir;
  check_ino t dir;
  (* Inode initialisation and the dirent insertion must be one transaction:
     a crash between two separate commits would leave an in-use inode that
     no directory references (orphan, flagged by fsck).

     Placement policy: files live in their parent directory's shard (so
     create / unlink / rmdir stay single-shard); new directories spread
     round-robin so a namespace populates every shard's ranges. Allocation
     falls back round the ring when the preferred range is dry. *)
  let shard =
    if kind = Media.Inode.kind_directory then Fs_ctx.next_dir_shard t.ctx
    else Fs_ctx.shard_of_ino t.ctx dir
  in
  match Fs_ctx.alloc_ino t.ctx ~shard with
  | None -> Errno.raise_error ENOSPC "out of inodes"
  | Some ino ->
    (* The inode is taken before the transaction begins (running out of
       inodes aborts nothing); the transaction owns it from its start. *)
    let log = log_for t ~ino:dir in
    Log.with_txn log (fun txn ->
        Log.allocated txn Inode ino;
        init_inode t log txn ~ino ~kind;
        Dir.add t.ctx txn ~dir name ~ino);
    ino

let create_file t ~dir name =
  create_entry t ~dir name ~kind:Media.Inode.kind_regular

let mkdir t ~dir name =
  create_entry t ~dir name ~kind:Media.Inode.kind_directory

(* Release an inode and all its blocks under [txn]: they go back to the
   allocators once it commits. Caller must have removed all directory
   entries pointing at it. Frees a directory victim (an empty directory
   replaced by rename) the same way. *)
let free_inode t log txn ~ino =
  let device = device t in
  let geo = geometry t in
  Block_tree.free_all t.ctx log txn ~ino;
  let addr = Layout.Inode.addr geo ino in
  Log.log log txn ~addr ~len:8;
  Layout.Inode.set_in_use device ~cat:Stats.Other geo ino false;
  Layout.Inode.set_kind device ~cat:Stats.Other geo ino Media.Inode.kind_free;
  Layout.Inode.set_links device ~cat:Stats.Other geo ino 0;
  Log.released txn Inode ino

let unlink t ~dir name =
  check_writable_ino t ~ino:dir;
  check_ino t dir;
  let ino = entry t ~dir name in
  let log = log_for t ~ino:dir in
  Log.with_txn log (fun txn ->
      ignore (Dir.remove t.ctx txn ~dir name);
      let links = Layout.Inode.links (device t) (geometry t) ino in
      if links <= 1 then free_inode t log txn ~ino
      else begin
        let addr = Layout.Inode.addr (geometry t) ino + Media.Inode.links_off in
        Log.log log txn ~addr ~len:2;
        Layout.Inode.set_links (device t) ~cat:Stats.Other (geometry t) ino
          (links - 1)
      end)

let rmdir t ~dir name =
  check_writable_ino t ~ino:dir;
  check_ino t dir;
  let ino = entry t ~dir name in
  let log = log_for t ~ino:dir in
  Log.with_txn log (fun txn ->
      ignore (Dir.remove t.ctx txn ~dir name);
      free_inode t log txn ~ino)

(* Rename: replace the target if one exists, insert the entry, remove the
   source. Within one shard both directories journal into the same log and
   one ordinary transaction covers all three steps. Across shards each side
   journals into its own shard's log, and the two transactions commit
   atomically through the epoch record (the single-cacheline commit
   point): a crash before the record covers the epoch rolls both sides
   back at recovery, a crash after keeps both — the entry is never visible
   in both directories, nor in neither. *)
let rename t ~src_dir ~src ~dst_dir ~dst =
  check_writable_ino t ~ino:src_dir;
  check_writable_ino t ~ino:dst_dir;
  check_ino t src_dir;
  check_ino t dst_dir;
  let ino = entry t ~dir:src_dir src in
  let src_log = log_for t ~ino:src_dir in
  let dst_log = log_for t ~ino:dst_dir in
  let move ~src_txn ~dst_txn =
    (match Dir.lookup t.ctx ~dir:dst_dir dst with
    | Some existing ->
      ignore (Dir.remove t.ctx dst_txn ~dir:dst_dir dst);
      free_inode t dst_log dst_txn ~ino:existing
    | None -> ());
    Dir.add t.ctx dst_txn ~dir:dst_dir dst ~ino;
    ignore (Dir.remove t.ctx src_txn ~dir:src_dir src)
  in
  if src_log == dst_log then
    Log.with_txn src_log (fun txn -> move ~src_txn:txn ~dst_txn:txn)
  else
    Hinfs_journal.Epoch.with_barrier (epoch t) (fun id ->
        let src_txn = Log.begin_txn src_log in
        let dst_txn = Log.begin_txn dst_log in
        try
          move ~src_txn ~dst_txn;
          if !sabotage_skip_epoch then begin
            (* Two independent durable commit points: a crash between them
               leaves the entry live in both directories — exactly the tear
               the epoch record closes. Vacuity fixtures only. *)
            Log.commit dst_log dst_txn;
            Device.mfence (device t) ~cat:Stats.Other;
            Log.commit src_log src_txn
          end
          else
            Log.commit_group (epoch t) ~id
              [ (dst_log, dst_txn); (src_log, src_txn) ]
        with e ->
          if not (Log.txn_committed dst_txn) then Log.abort dst_log dst_txn;
          if not (Log.txn_committed src_txn) then Log.abort src_log src_txn;
          raise e)

let readdir t ~dir =
  check_ino t dir;
  Dir.list t.ctx ~dir

(* --- lifecycle --- *)

let sync_all t = Device.mfence (device t) ~cat:Stats.Other

let unmount t =
  if t.mounted then begin
    t.mounted <- false;
    Fs_ctx.iter_shards t.ctx (fun _ sh -> Log.stop_cleaner sh.Fs_ctx.log);
    (* A mount with any unhealthy fault domain never certifies the image
       clean: the next mount must re-run recovery and re-detect the
       damage. *)
    if fully_healthy t then
      Layout.write_superblock (device t) (geometry t) ~clean:true
  end

(* --- Backend.S instance --- *)

module Backend : Hinfs_vfs.Backend.S with type t = t = struct
  type nonrec t = t

  let fs_name _ = "pmfs"
  let device = device
  let sync_mount _ = false
  let root_ino _ = Layout.root_ino
  let lookup = lookup
  let create_file = create_file
  let mkdir = mkdir
  let unlink = unlink
  let rmdir = rmdir
  let rename = rename
  let readdir = readdir
  let stat t ~ino = stat_of t ino
  let read = read
  let write = write
  let truncate = truncate
  let fsync = fsync

  (* PMFS maps NVMM pages straight into user space (DAX). Before the
     mapping is exposed, the file's in-flight updates must be ordered on
     the medium — the same fence fsync pays (extfs's DAX msync path);
     mmap was previously a silent no-op, which skipped that ordering. *)
  let mmap t ~ino =
    fsync t ~ino;
    Obs.instant Obs.Ev_mmap_pin ~a:ino ~b:0

  let munmap _ ~ino = Obs.instant Obs.Ev_mmap_unpin ~a:ino ~b:0
  let msync t ~ino = fsync t ~ino
  let sync_all = sync_all
  let unmount = unmount
end

module Vfs_layer = Hinfs_vfs.Vfs.Make (Backend)

let handle t = Vfs_layer.handle t
