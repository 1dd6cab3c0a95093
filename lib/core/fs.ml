(* HiNFS: the high performance NVMM file system (the paper's contribution).

   Layered on the PMFS persistent format, HiNFS adds:
   - the NVMM-aware Write Buffer (§3.2): lazy-persistent writes land in a
     DRAM buffer pool with an LRW replacement list, hiding NVMM's long
     write latency behind the critical path;
   - CLFW (§3.2.1): fetch and writeback at cacheline granularity, tracked
     by per-block Cacheline Bitmaps;
   - direct reads (§3.3.1): reads copy straight from DRAM and/or NVMM to
     the user buffer, merging at cacheline-run granularity;
   - direct eager-persistent writes (§3.3.2): the Eager-Persistent Write
     Checker (O_SYNC = case 1, as no HiNFS mount is a sync mount; the
     Buffer Benefit Model with ghost buffer = case 2) routes writes that
     would not benefit from buffering straight to NVMM with non-temporal
     stores;
   - background writeback daemons (§3.2): woken below the Low_f free
     watermark or every 5 s, reclaim to High_f, and clean blocks older
     than 30 s;
   - ordered-mode journaling (§4.1): a lazy write's metadata lives in a
     per-file pending undo-log transaction that is committed only once all
     the file's buffered dirty blocks have been written back, so committed
     metadata never references unwritten data.

   Knobs in {!Hconfig} provide the paper's ablations: HiNFS-NCLFW
   (clfw = false) and HiNFS-WB (checker = false). *)

module Proc = Hinfs_sim.Proc
module Engine = Hinfs_sim.Engine
module Condvar = Hinfs_sim.Condvar
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Allocator = Hinfs_nvmm.Allocator
module Log = Hinfs_journal.Cacheline_log
module Errno = Hinfs_vfs.Errno
module Types = Hinfs_vfs.Types
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Obs = Hinfs_obs.Obs

(* The DRAM Block Index (§3.2) maps a file block to its buffer-pool
   block. The paper uses a B-tree; a [Blockmap] gives the same ordered
   find/insert/remove, and the simulator charges no virtual time for
   index operations, so the choice moves no figure. An insert or remove
   writes in place and allocates nothing in the file's long-lived
   state. *)
module Blockmap = Hinfs_structures.Blockmap

type file_state = {
  f_ino : int;
  index : Blockmap.t; (* fblock -> pool block id *)
  model : Benefit.file_model;
  mutable dirty_blocks : int; (* buffered blocks with dirty cachelines *)
  mutable pending_txn : Log.txn option; (* owns its NVMM allocations *)
  mutable writers : int; (* writes in flight (commit barrier) *)
}

(* One shard's DRAM-side hot state: its slice of the write buffer plus the
   condvars its writeback daemons and stalled writers meet on. A file's
   buffered blocks live entirely in its home shard's pool (the shard is a
   pure function of the inode number), so shards never contend on pool
   metadata or the LRW list. *)
type shard_state = {
  pool : Buffer_pool.t;
  wb_wakeup : Condvar.t; (* this shard's writeback daemons sleep here *)
  free_cv : Condvar.t; (* foreground stalls for free buffer blocks *)
}

type t = {
  pmfs : Pmfs.t;
  hcfg : Hconfig.t;
  shards : shard_state array;
  files : (int, file_state) Hashtbl.t;
  mutable daemons : int;
  mutable stopping : bool;
}

let pmfs t = t.pmfs
let device t = Pmfs.device t.pmfs
let stats t = Device.stats (device t)
let config t = Device.config (device t)
let shard_count t = Array.length t.shards
let shard_of t ino = Pmfs.shard_of_ino t.pmfs ino
let shard_for t ino = t.shards.(shard_of t ino)
let spool t ino = (shard_for t ino).pool
let shard_pool t s = t.shards.(s).pool
let now t = Engine.now (Device.engine (device t))

let block_size t = (config t).Config.block_size
let cacheline t = (config t).Config.cacheline_size
let lines_per_block t = block_size t / cacheline t

(* --- creation --- *)

let create ?(hcfg = Hconfig.default) pmfs =
  let hcfg = Hconfig.validate hcfg in
  let device = Pmfs.device pmfs in
  let config = Device.config device in
  (* One pool slice per persistent shard; the DRAM budget is divided
     evenly. The shard count is a mount property (superblock geometry) so
     the DRAM and NVMM partitions always agree. *)
  let nshards = Pmfs.shard_count pmfs in
  let capacity =
    max 8 (hcfg.Hconfig.buffer_bytes / config.Config.block_size / nshards)
  in
  {
    pmfs;
    hcfg;
    shards =
      Array.init nshards (fun _ ->
          {
            pool =
              Buffer_pool.create device ~capacity;
            wb_wakeup = Condvar.create (Device.engine device);
            free_cv = Condvar.create (Device.engine device);
          });
    files = Hashtbl.create 256;
    daemons = 0;
    stopping = false;
  }

let file_state t ino =
  match Hashtbl.find_opt t.files ino with
  | Some fs -> fs
  | None ->
    let fs =
      {
        f_ino = ino;
        index = Blockmap.create ();
        model = Benefit.create_file_model ();
        dirty_blocks = 0;
        pending_txn = None;
        writers = 0;
      }
    in
    Hashtbl.replace t.files ino fs;
    fs

let buffered_block t fst fblock =
  match Blockmap.find fst.index fblock with
  | -1 -> None
  | id ->
    let b = Buffer_pool.block (spool t fst.f_ino) id in
    if b.Buffer_pool.in_use && b.Buffer_pool.ino = fst.f_ino
       && b.Buffer_pool.fblock = fblock
    then Some b
    else None

(* --- pending transaction management --- *)

(* The journal a file's pending transaction lives on: its home shard's. *)
let log_of t fst = Pmfs.log_for t.pmfs ~ino:fst.f_ino

let get_pending_txn t fst =
  match fst.pending_txn with
  | Some txn -> txn
  | None ->
    let txn = Log.begin_txn (log_of t fst) in
    fst.pending_txn <- Some txn;
    txn

(* The one place a file lets go of its pending transaction: once the
   transaction has committed, or ([dying]) right before a dying file's
   abort, so nothing logs into it while the abort runs.

   A commit that fails before its commit entry lands (a journal-slot fault,
   a media error on the flush) leaves the transaction pending: its undo
   entries and block allocations stay with this file and the next barrier
   retries the commit. Aborting instead would roll back the metadata of
   earlier lazy writes whose buffered data still references the allocated
   home blocks. *)
let let_go ?(dying = false) fst =
  match fst.pending_txn with
  | Some txn when dying || Log.txn_committed txn -> fst.pending_txn <- None
  | _ -> ()

(* Commit the pending transaction. Callers must ensure all the file's
   buffered dirty data has been persisted (ordered mode). *)
let commit_pending t fst =
  match fst.pending_txn with
  | None -> ()
  | Some txn ->
    Fun.protect
      ~finally:(fun () -> let_go fst)
      (fun () -> Log.commit (log_of t fst) txn)

(* Commit if the ordered-mode invariant allows it right now. *)
let maybe_commit t fst =
  if fst.dirty_blocks = 0 && fst.writers = 0 then commit_pending t fst

(* Opportunistic commit from the writeback daemons and pool reclaim: a
   transient commit failure (injected journal fault, media error) must not
   kill a daemon or fail an unrelated foreground write. The transaction
   stays pending and the next explicit barrier (fsync, unmount) surfaces
   any persistent error. *)
let try_commit t fst = try maybe_commit t fst with _ -> ()

(* --- writeback --- *)

let mark_block_dirty t fst b lines =
  if Buffer_pool.add_dirty b lines then
    fst.dirty_blocks <- fst.dirty_blocks + 1;
  Buffer_pool.touch_written (spool t fst.f_ino) b ~now:(now t)

(* Write the dirty cachelines of a buffer block back to its NVMM home.
   Under CLFW only dirty lines stream out, as maximal runs; without CLFW
   the whole block does.

   Any flush completes the home block: lines never written anywhere are
   zero-filled, so from the first writeback onward the NVMM copy is safe
   to expose (a later commit may make the block reachable, and a crash
   must not reveal stale medium bytes). Blocks that die before their first
   flush never pay this — the short-lived-file win of §1.

   If [evict], the block is also freed (unless re-dirtied concurrently). *)
let rec flush_block ?(background = false) ?(cat = Stats.Write_access) t b ~evict
    =
  Obs.with_span Obs.Writeback (fun () ->
      flush_block_body ~background ~cat t b ~evict)

and flush_block_body ~background ~cat t b ~evict =
  let fst = file_state t b.Buffer_pool.ino in
  let dev = device t in
  let cl = cacheline t in
  let nlines = lines_per_block t in
  let home_addr = Pmfs.Data.block_addr t.pmfs b.Buffer_pool.home in
  b.Buffer_pool.pinned <- b.Buffer_pool.pinned + 1;
  Fun.protect
    ~finally:(fun () -> b.Buffer_pool.pinned <- b.Buffer_pool.pinned - 1)
    (fun () ->
      let snapshot =
        if t.hcfg.Hconfig.clfw then Buffer_pool.dirty b
        else if not (Buffer_pool.is_dirty b) then Clbitmap.empty
        else Clbitmap.full_mask nlines
      in
      if not (Clbitmap.is_empty snapshot) then begin
        Clbitmap.iter_set_runs snapshot ~nlines (fun ~first ~count ->
            Buffer_pool.write_back ~background dev ~cat b
              ~addr:(home_addr + (first * cl))
              ~first ~count);
        Device.mfence dev ~cat;
        Stats.add_coalesced_cachelines (stats t) (Clbitmap.count snapshot)
      end;
      (* Read-and-clear atomically (no yield between): a concurrent flusher
         of the same block must not double-decrement [dirty_blocks]. *)
      if Buffer_pool.clean_lines b snapshot then
        fst.dirty_blocks <- fst.dirty_blocks - 1;
      if (evict || not (Clbitmap.is_empty snapshot))
         && not (Clbitmap.equal (Buffer_pool.home_valid b)
                   (Clbitmap.full_mask nlines))
      then begin
        let missing =
          Clbitmap.diff (Clbitmap.full_mask nlines) (Buffer_pool.home_valid b)
        in
        Clbitmap.iter_set_runs missing ~nlines (fun ~first ~count ->
            Device.zero_nt ~background dev ~cat
              ~addr:(home_addr + (first * cl))
              ~len:(count * cl));
        if not (Clbitmap.is_empty missing) then Device.mfence dev ~cat;
        Buffer_pool.set_home_valid b (Clbitmap.full_mask nlines)
      end);
  if evict && (not (Buffer_pool.is_dirty b)) && b.Buffer_pool.pinned = 0
  then begin
    let sh = shard_for t b.Buffer_pool.ino in
    Blockmap.remove fst.index b.Buffer_pool.fblock;
    Buffer_pool.free sh.pool b;
    Stats.eviction (stats t);
    ignore (Condvar.broadcast sh.free_cv)
  end

(* Flush (and optionally evict) every buffered block of a file. *)
let flush_file ?background ?cat t fst ~evict =
  let pool = spool t fst.f_ino in
  List.iter
    (fun (_, id) ->
      let b = Buffer_pool.block pool id in
      if b.Buffer_pool.in_use && b.Buffer_pool.ino = fst.f_ino then
        flush_block ?background ?cat t b ~evict)
    (Blockmap.to_list fst.index)

(* Flush a file's dirty data and commit its pending metadata: the ordered
   barrier used by fsync, eager-write conflicts, truncate and unmount. *)
let sync_file_data t fst =
  flush_file t fst ~evict:false;
  commit_pending t fst

(* --- background writeback daemons (§3.2) --- *)

let reclaim_target t sh =
  int_of_float
    (t.hcfg.Hconfig.high_watermark *. float_of_int (Buffer_pool.capacity sh.pool))

let low_free sh hcfg =
  Buffer_pool.free_fraction sh.pool < hcfg.Hconfig.low_watermark

(* Each shard runs its own daemon(s) over its own pool slice: reclaim and
   age-based cleaning never cross shards, so daemons contend neither on
   pool metadata nor (through try_commit) on another shard's journal. *)
let daemon_body t sh =
  let rec loop () =
    if not t.stopping then begin
      ignore
        (Condvar.wait_timeout sh.wb_wakeup
           ~timeout:t.hcfg.Hconfig.flush_interval_ns);
      if not t.stopping then begin
        (* Reclaim from the LRW end until the high watermark. *)
        let rec reclaim () =
          if
            (not t.stopping)
            && Buffer_pool.free_count sh.pool < reclaim_target t sh
          then begin
            match Buffer_pool.pick_victim sh.pool with
            | None -> ()
            | Some b ->
              flush_block ~background:true t b ~evict:true;
              try_commit t (file_state t b.Buffer_pool.ino);
              reclaim ()
          end
        in
        if
          low_free sh t.hcfg
          || Buffer_pool.free_count sh.pool < reclaim_target t sh
        then reclaim ();
        (* Age-based cleaning: write back (without evicting) blocks whose
           last write is older than the age threshold. *)
        let cutoff = Int64.sub (now t) t.hcfg.Hconfig.age_flush_ns in
        let stale =
          List.filter
            (fun id ->
              let b = Buffer_pool.block sh.pool id in
              b.Buffer_pool.in_use
              && Buffer_pool.is_dirty b
              && Int64.compare (Buffer_pool.last_written b) cutoff <= 0)
            (Buffer_pool.lrw_ids sh.pool)
        in
        List.iter
          (fun id ->
            let b = Buffer_pool.block sh.pool id in
            if b.Buffer_pool.in_use then begin
              flush_block ~background:true t b ~evict:false;
              try_commit t (file_state t b.Buffer_pool.ino)
            end)
          stale;
        loop ()
      end
    end
  in
  loop ()

let start_daemons t =
  if t.daemons > 0 then invalid_arg "Hinfs: daemons already running";
  let nshards = shard_count t in
  (* Spread the configured writeback threads across shards, at least one
     per shard (a shard without a daemon would stall its writers forever
     once its pool slice fills). *)
  let per_shard = max 1 (t.hcfg.Hconfig.writeback_threads / nshards) in
  t.daemons <- per_shard * nshards;
  Array.iteri
    (fun s sh ->
      for i = 1 to per_shard do
        Proc.spawn ~name:(Printf.sprintf "hinfs-writeback-%d.%d" s i)
          (fun () -> daemon_body t sh)
      done)
    t.shards

(* Allocate a DRAM buffer block, stalling on the writeback daemons when the
   pool is exhausted (the foreground stall of §3.2.1). *)
let alloc_buffer_block t ~ino ~fblock ~home =
  let sh = shard_for t ino in
  let rec attempt () =
    match Buffer_pool.alloc sh.pool ~ino ~fblock ~home ~now:(now t) with
    | Some b ->
      if low_free sh t.hcfg then ignore (Condvar.signal sh.wb_wakeup);
      b
    | None ->
      Stats.writeback_stall (stats t);
      ignore (Condvar.signal sh.wb_wakeup);
      if t.daemons = 0 then begin
        (* No daemons (unit-test configuration): reclaim inline. *)
        (match Buffer_pool.pick_victim sh.pool with
        | Some victim ->
          flush_block t victim ~evict:true;
          try_commit t (file_state t victim.Buffer_pool.ino)
        | None -> ());
        attempt ()
      end
      else begin
        ignore (Condvar.wait_timeout sh.free_cv ~timeout:1_000_000L);
        attempt ()
      end
  in
  attempt ()

(* --- write path --- *)

(* Fetch the NVMM-resident parts of [lines] that a partial write needs
   (CLFW: only boundary lines; NCLFW: the whole block). Lines not valid at
   home read as zeros. *)
let fetch_lines t b lines =
  let dev = device t in
  let cl = cacheline t in
  let nlines = lines_per_block t in
  let home_addr = Pmfs.Data.block_addr t.pmfs b.Buffer_pool.home in
  let needed = Clbitmap.diff lines (Buffer_pool.present b) in
  let obs_t0 = if Obs.enabled () then Proc.now () else 0L in
  let from_home = Clbitmap.inter needed (Buffer_pool.home_valid b) in
  Clbitmap.iter_set_runs from_home ~nlines (fun ~first ~count ->
      Buffer_pool.fetch dev ~cat:Stats.Write_access b
        ~addr:(home_addr + (first * cl))
        ~first ~count);
  let as_zero = Clbitmap.diff needed (Buffer_pool.home_valid b) in
  Clbitmap.iter_set_runs as_zero ~nlines (fun ~first ~count ->
      Buffer_pool.fill_zeros dev b ~first ~count);
  if not (Clbitmap.is_empty needed) then
    Obs.span_since Obs.Buffer_fetch ~t0:obs_t0;
  Buffer_pool.add_present b lines

(* One block-aligned segment of a lazy-persistent write. *)
let lazy_write_segment t fst ~fblock ~in_block ~src ~src_off ~len =
  let cl = cacheline t in
  let nlines = lines_per_block t in
  let st = stats t in
  let b =
    match buffered_block t fst fblock with
    | Some b ->
      Stats.buffer_write_hit st;
      b
    | None ->
      Stats.buffer_write_miss st;
      (* Bind a DRAM block; allocate the NVMM home up front so the
         writeback threads know where to flush (§3.2, Fig. 5). *)
      let home, fresh =
        match Pmfs.Data.lookup_block t.pmfs ~ino:fst.f_ino ~fblock with
        | Some home -> (home, false)
        | None ->
          Pmfs.Data.ensure_block t.pmfs (get_pending_txn t fst) ~ino:fst.f_ino
            ~fblock
      in
      let b = alloc_buffer_block t ~ino:fst.f_ino ~fblock ~home in
      Buffer_pool.set_home_valid b
        (if fresh then Clbitmap.empty else Clbitmap.full_mask nlines);
      Blockmap.add fst.index fblock b.Buffer_pool.id;
      b
  in
  b.Buffer_pool.pinned <- b.Buffer_pool.pinned + 1;
  Fun.protect
    ~finally:(fun () -> b.Buffer_pool.pinned <- b.Buffer_pool.pinned - 1)
    (fun () ->
      let lines = Clbitmap.of_byte_range ~cacheline_size:cl ~off:in_block ~len in
      (* Fetch-before-write, at the granularity the config dictates. *)
      let to_fetch =
        if t.hcfg.Hconfig.clfw then
          Clbitmap.boundary_partials ~cacheline_size:cl ~off:in_block ~len
        else if Clbitmap.equal lines (Clbitmap.full_mask nlines) then
          Clbitmap.empty
        else Clbitmap.full_mask nlines
      in
      fetch_lines t b to_fetch;
      Device.charge_memcpy (device t) Stats.Write_access `Write len;
      Buffer_pool.store (device t) b ~off:in_block ~src ~src_off ~len;
      let dirty_lines =
        if t.hcfg.Hconfig.clfw then lines else Clbitmap.full_mask nlines
      in
      mark_block_dirty t fst b dirty_lines)

(* One block-aligned segment of an eager-persistent write. If the block is
   buffered, the paper's consistency rule applies: write into DRAM, then
   explicitly flush it before returning (§3.3.2). We keep the clean block
   cached rather than freeing it: reads keep preferring the DRAM copy, so
   consistency holds either way, and freeing would force the home block's
   never-written cachelines to be zero-filled right on the eager write's
   critical path. The writeback daemons still evict it under pressure. *)
let eager_write_segment t fst ~fblock ~in_block ~src ~src_off ~len =
  Stats.eager_write (stats t);
  match buffered_block t fst fblock with
  | Some b ->
    b.Buffer_pool.pinned <- b.Buffer_pool.pinned + 1;
    Fun.protect
      ~finally:(fun () -> b.Buffer_pool.pinned <- b.Buffer_pool.pinned - 1)
      (fun () ->
        let cl = cacheline t in
        let lines =
          Clbitmap.of_byte_range ~cacheline_size:cl ~off:in_block ~len
        in
        fetch_lines t b
          (Clbitmap.boundary_partials ~cacheline_size:cl ~off:in_block ~len);
        Device.charge_memcpy (device t) Stats.Write_access `Write len;
        Buffer_pool.store (device t) b ~off:in_block ~src ~src_off ~len;
        mark_block_dirty t fst b lines);
    flush_block t b ~evict:false
  | None ->
    (* Straight to NVMM: exactly the PMFS data path, minus the size update
       which the caller handles once for the whole write. *)
    let bs = block_size t in
    ignore
      (Pmfs.write_direct t.pmfs ~ino:fst.f_ino
         ~off:((fblock * bs) + in_block)
         ~src ~src_off ~len)

(* Journal backpressure: pending (ordered) transactions hold undo-log
   slots until their file's buffered data is written back. When the log
   runs low, kick the writeback daemons; when critically low, drain this
   file synchronously so its transaction's slots free up. *)
let journal_backpressure t fst =
  let log = log_of t fst in
  let free = Log.free_slots log in
  let capacity = Log.capacity log in
  if free * 10 < capacity then begin
    ignore (Condvar.signal (shard_for t fst.f_ino).wb_wakeup);
    if free * 5 < capacity && fst.pending_txn <> None then
      sync_file_data t fst
  end

let write t ~ino ~off ~src ~src_off ~len ~sync =
  Pmfs.check_writable_ino t.pmfs ~ino;
  let fst = file_state t ino in
  journal_backpressure t fst;
  let bs = block_size t in
  let cl = cacheline t in
  let old_size = Pmfs.inode_size t.pmfs ino in
  fst.writers <- fst.writers + 1;
  Fun.protect
    ~finally:(fun () -> fst.writers <- fst.writers - 1)
    (fun () ->
      (* Segment the write and consult the checker per block. *)
      let segments = ref [] in
      let rec split done_ =
        if done_ < len then begin
          let pos = off + done_ in
          let fblock = pos / bs in
          let in_block = pos mod bs in
          let chunk = min (bs - in_block) (len - done_) in
          let eager =
            sync
            || (t.hcfg.Hconfig.checker
               && Benefit.is_eager fst.model fblock ~now:(now t)
                    ~eager_decay_ns:t.hcfg.Hconfig.eager_decay_ns)
          in
          Obs.instant
            (if eager then Obs.Ev_bbm_eager else Obs.Ev_bbm_lazy)
            ~a:ino ~b:fblock;
          segments := (fblock, in_block, done_, chunk, eager) :: !segments;
          split (done_ + chunk)
        end
      in
      split 0;
      let segments = List.rev !segments in
      let any_eager = List.exists (fun (_, _, _, _, e) -> e) segments in
      (* Ghost-buffer accounting for the Benefit Model (all writes). *)
      List.iter
        (fun (fblock, in_block, _, chunk, _) ->
          Benefit.record_write fst.model fblock
            ~lines:
              (Clbitmap.of_byte_range ~cacheline_size:cl ~off:in_block
                 ~len:chunk))
        segments;
      if any_eager then begin
        (* Mixed or eager write. Resolve the metadata-transaction conflict
           by draining the pending lazy state first (rare: lazy and eager
           writes interleaving on one file between syncs). *)
        if fst.pending_txn <> None then sync_file_data t fst;
        List.iter
          (fun (fblock, in_block, done_, chunk, _eager) ->
            (* After the barrier all segments go eager: per-block mixing
               within one syscall would re-create the conflict. *)
            eager_write_segment t fst ~fblock ~in_block ~src
              ~src_off:(src_off + done_) ~len:chunk)
          segments;
        (* Persist the size extension eagerly (eager segments via
           write_direct may already have grown it). *)
        let cur = Pmfs.inode_size t.pmfs ino in
        if off + len > cur then
          Log.with_txn (log_of t fst) (fun txn ->
              Pmfs.Data.update_size t.pmfs txn ~ino ~size:(off + len);
              Pmfs.Data.touch_mtime_txn t.pmfs txn ~ino)
      end
      else begin
        List.iter
          (fun (fblock, in_block, done_, chunk, _) ->
            Stats.lazy_write (stats t);
            lazy_write_segment t fst ~fblock ~in_block ~src
              ~src_off:(src_off + done_) ~len:chunk)
          segments;
        (* Metadata: size through the pending (ordered) transaction; a
           non-extending write only touches mtime, atomically. *)
        if off + len > old_size then begin
          let txn = get_pending_txn t fst in
          Pmfs.Data.update_size t.pmfs txn ~ino ~size:(off + len);
          Pmfs.Data.touch_mtime_txn t.pmfs txn ~ino
        end
        else Pmfs.Data.touch_mtime_atomic t.pmfs ~ino
      end;
      len)

(* --- read path (§3.3.1) --- *)

(* Copy one block segment from the buffer block + NVMM home, merging by
   cacheline runs with as few memcpy operations as possible. *)
let read_buffered_segment t b ~in_block ~len ~into ~into_off =
  let dev = device t in
  let cl = cacheline t in
  let nlines = lines_per_block t in
  let home_addr = Pmfs.Data.block_addr t.pmfs b.Buffer_pool.home in
  let seg_start = in_block and seg_end = in_block + len in
  let copy_run ~first ~count ~from_dram =
    (* Clip the run's byte range to the segment. *)
    let run_start = max seg_start (first * cl) in
    let run_end = min seg_end ((first + count) * cl) in
    if run_end > run_start then begin
      let n = run_end - run_start in
      let dst_off = into_off + (run_start - seg_start) in
      if from_dram then begin
        Device.charge_memcpy (device t) Stats.Read_access `Read n;
        Buffer_pool.load b ~off:run_start ~len:n ~into ~into_off:dst_off
      end
      else if
        Clbitmap.is_empty
          (Clbitmap.inter
             (Clbitmap.of_byte_range ~cacheline_size:cl ~off:run_start ~len:n)
             (Buffer_pool.home_valid b))
      then begin
        (* Never written anywhere: zero fill. *)
        Device.charge_memcpy (device t) Stats.Read_access `Read n;
        Bytes.fill into dst_off n '\000'
      end
      else
        Device.read dev ~cat:Stats.Read_access ~addr:(home_addr + run_start)
          ~len:n ~into ~off:dst_off
    end
  in
  Clbitmap.iter_runs (Buffer_pool.present b) ~nlines (fun ~first ~count ~set ->
      copy_run ~first ~count ~from_dram:set)

let read t ~ino ~off ~len ~into ~into_off =
  let fst = file_state t ino in
  let bs = block_size t in
  let size = Pmfs.inode_size t.pmfs ino in
  let len = if off >= size then 0 else min len (size - off) in
  let st = stats t in
  let rec copy done_ =
    if done_ < len then begin
      let pos = off + done_ in
      let fblock = pos / bs in
      let in_block = pos mod bs in
      let chunk = min (bs - in_block) (len - done_) in
      (match buffered_block t fst fblock with
      | Some b ->
        Stats.buffer_read_hit st;
        b.Buffer_pool.pinned <- b.Buffer_pool.pinned + 1;
        Fun.protect
          ~finally:(fun () ->
            b.Buffer_pool.pinned <- b.Buffer_pool.pinned - 1)
          (fun () ->
            read_buffered_segment t b ~in_block ~len:chunk ~into
              ~into_off:(into_off + done_))
      | None ->
        Stats.buffer_read_miss st;
        ignore
          (Pmfs.read t.pmfs ~ino ~off:pos ~len:chunk ~into
             ~into_off:(into_off + done_)));
      copy (done_ + chunk)
    end
  in
  copy 0;
  len

(* --- fsync (§3.3.2) --- *)

let fsync t ~ino =
  let fst = file_state t ino in
  (* Persist buffered data, then the pending metadata (ordered mode). *)
  flush_file t fst ~evict:false;
  commit_pending t fst;
  (* Update the Buffer Benefit Model with this synchronization. *)
  let cfg = config t in
  ignore
    (Benefit.on_sync fst.model ~now:(now t) ~l_dram:cfg.Config.dram_write_ns
       ~l_nvmm:cfg.Config.nvmm_write_ns ~stats:(stats t));
  Device.mfence (device t) ~cat:Stats.Other

(* --- namespace operations ---

   Directory and inode metadata are never buffered (§4.1: "HiNFS does not
   buffer any file system metadata"), so these mostly delegate to PMFS,
   with buffer bookkeeping around deletion and truncation. *)

(* A writeback daemon may hold a pin on a block across its flush; freeing
   must wait it out (flushes are bounded, and the waiter holds no lock the
   daemons need). *)
let wait_unpinned b =
  while b.Buffer_pool.pinned > 0 do
    Proc.delay 1_000L
  done

(* Discard a file's buffered blocks without writing them back (the file is
   dying — the §1 motivation: writes to later-deleted files need never
   reach NVMM). *)
let drop_buffers t ino =
  match Hashtbl.find_opt t.files ino with
  | None -> ()
  | Some fst ->
    let st = stats t in
    let sh = shard_for t ino in
    let dropped = ref 0 in
    List.iter
      (fun (_, id) ->
        let b = Buffer_pool.block sh.pool id in
        if b.Buffer_pool.in_use && b.Buffer_pool.ino = ino then begin
          wait_unpinned b;
          if b.Buffer_pool.in_use && b.Buffer_pool.ino = ino then begin
            if Buffer_pool.is_dirty b then incr dropped;
            Buffer_pool.clear_dirty b;
            Buffer_pool.free sh.pool b
          end
        end)
      (Blockmap.to_list fst.index);
    Stats.dead_block_drop st !dropped;
    if !dropped > 0 then begin
      Obs.instant Obs.Ev_dead_drop ~a:ino ~b:!dropped;
      ignore (Condvar.broadcast sh.free_cv)
    end;
    (* The never-synced file's metadata rolls back, and the abort reclaims
       the NVMM blocks its lazy writes allocated. *)
    (match fst.pending_txn with
    | Some txn ->
      let_go ~dying:true fst;
      Log.abort (log_of t fst) txn
    | None -> ());
    Hashtbl.remove t.files ino

(* The victim's buffers die with it; the namespace outcome itself was
   decided by the VFS (Backend.S), the rest is PMFS's. *)
let unlink t ~dir name =
  Option.iter (drop_buffers t) (Pmfs.lookup t.pmfs ~dir name);
  Pmfs.unlink t.pmfs ~dir name

let rename t ~src_dir ~src ~dst_dir ~dst =
  Option.iter (drop_buffers t) (Pmfs.lookup t.pmfs ~dir:dst_dir dst);
  Pmfs.rename t.pmfs ~src_dir ~src ~dst_dir ~dst

let truncate t ~ino ~size =
  Pmfs.check_writable_ino t.pmfs ~ino;
  let fst = file_state t ino in
  let bs = block_size t in
  let keep_blocks = (size + bs - 1) / bs in
  (* Buffered blocks beyond the new size die; the rest are flushed so the
     (journaled) truncate applies to a stable persistent state. *)
  let pool = spool t ino in
  List.iter
    (fun (fblock, id) ->
      let b = Buffer_pool.block pool id in
      if b.Buffer_pool.in_use && b.Buffer_pool.ino = ino
         && fblock >= keep_blocks
      then begin
        wait_unpinned b;
        if b.Buffer_pool.in_use && b.Buffer_pool.ino = ino then begin
          if Buffer_pool.is_dirty b then begin
            fst.dirty_blocks <- fst.dirty_blocks - 1;
            Buffer_pool.clear_dirty b
          end;
          Blockmap.remove fst.index fblock;
          Buffer_pool.free pool b
        end
      end)
    (Blockmap.to_list fst.index);
  sync_file_data t fst;
  Pmfs.truncate t.pmfs ~ino ~size

(* --- mmap (§4.2) --- *)

let mmap t ~ino =
  let fst = file_state t ino in
  (* Flush all dirty buffered blocks of this file to NVMM, then pin its
     blocks Eager-Persistent until munmap. Evict so the mapping and the
     buffer can never diverge. *)
  flush_file t fst ~evict:true;
  commit_pending t fst;
  Benefit.pin_mmap fst.model;
  Obs.instant Obs.Ev_mmap_pin ~a:ino ~b:0

let munmap t ~ino =
  let fst = file_state t ino in
  Benefit.unpin_mmap fst.model;
  Obs.instant Obs.Ev_mmap_unpin ~a:ino ~b:0

let msync t ~ino =
  ignore ino;
  Device.mfence (device t) ~cat:Stats.Other

(* --- lifecycle --- *)

(* Whole-FS sync. With one shard this is the classic loop: flush every
   file, commit every pending transaction. With several shards the pending
   commits span journals, and committing them one by one would let a crash
   mid-sync land between two shards' commits — callers of sync_all expect
   an all-or-nothing durability point. So when more than one shard holds
   pending transactions, they all commit through one epoch: prepare each
   on its own journal, persist the epoch record (single cacheline, atomic),
   then checkpoint. *)
let sync_all t =
  Hashtbl.iter (fun _ino fst -> flush_file t fst ~evict:false) t.files;
  let pending =
    Hashtbl.fold
      (fun _ fst acc -> if fst.pending_txn <> None then fst :: acc else acc)
      t.files []
  in
  let shards_touched =
    List.sort_uniq compare (List.map (fun fst -> shard_of t fst.f_ino) pending)
  in
  (match shards_touched with
  | [] | [ _ ] -> List.iter (fun fst -> commit_pending t fst) pending
  | _ ->
    Hinfs_journal.Epoch.with_barrier (Pmfs.epoch t.pmfs) (fun id ->
        let parts =
          List.filter_map
            (fun fst ->
              Option.map (fun txn -> (log_of t fst, txn)) fst.pending_txn)
            pending
        in
        Fun.protect
          ~finally:(fun () -> List.iter (fun fst -> let_go fst) pending)
          (fun () -> Log.commit_group (Pmfs.epoch t.pmfs) ~id parts)));
  Device.mfence (device t) ~cat:Stats.Other

let unmount t =
  t.stopping <- true;
  Array.iter (fun sh -> ignore (Condvar.broadcast sh.wb_wakeup)) t.shards;
  sync_all t;
  Pmfs.unmount t.pmfs

(* --- introspection for tests and benchmarks --- *)

let sum_pools t f =
  Array.fold_left (fun acc sh -> acc + f sh.pool) 0 t.shards

let buffered_blocks t = sum_pools t Buffer_pool.used_count
let free_buffer_blocks t = sum_pools t Buffer_pool.free_count

let dirty_buffered_blocks t =
  Hashtbl.fold (fun _ fst acc -> acc + fst.dirty_blocks) t.files 0

let pending_txns t =
  Hashtbl.fold
    (fun _ fst acc -> if fst.pending_txn <> None then acc + 1 else acc)
    t.files 0

let is_block_buffered t ~ino ~fblock =
  match Hashtbl.find_opt t.files ino with
  | None -> false
  | Some fst -> buffered_block t fst fblock <> None

let block_state_eager t ~ino ~fblock =
  match Hashtbl.find_opt t.files ino with
  | None -> false
  | Some fst ->
    Benefit.is_eager fst.model fblock ~now:(now t)
      ~eager_decay_ns:t.hcfg.Hconfig.eager_decay_ns

(* --- mkfs / mount helpers --- *)

let mkfs_and_mount device ?journal_blocks ?shards ?hcfg ?(daemons = true) () =
  (* The journal must hold the undo entries of every pending (ordered)
     transaction; those scale with the number of buffered blocks. Default
     to ~16 entry slots per buffer block unless told otherwise. *)
  let journal_blocks =
    match journal_blocks with
    | Some j -> Some j
    | None ->
      let cfg = Device.config device in
      let buffer_blocks =
        (match hcfg with Some h -> h.Hconfig.buffer_bytes | None -> Hconfig.default.Hconfig.buffer_bytes)
        / cfg.Config.block_size
      in
      let slots_per_block = cfg.Config.block_size / 64 in
      Some (max 64 (buffer_blocks * 16 / slots_per_block))
  in
  let pmfs =
    Pmfs.mkfs_and_mount device ?journal_blocks ?shards
      ~journal_cleaner:daemons ()
  in
  let t = create ?hcfg pmfs in
  if daemons then start_daemons t;
  t

(* Mount an existing image (e.g. a crash snapshot): PMFS mount runs log
   recovery and rebuilds the allocators; HiNFS state on top (buffer, benefit
   model, pending transactions) is all volatile and starts empty. *)
let mount device ?hcfg ?(daemons = true) () =
  let pmfs = Pmfs.mount device ~journal_cleaner:daemons () in
  let t = create ?hcfg pmfs in
  if daemons then start_daemons t;
  t

(* --- Backend.S instance --- *)

module Backend : Hinfs_vfs.Backend.S with type t = t = struct
  type nonrec t = t

  let fs_name _ = "hinfs"
  let device = device
  let sync_mount _ = false
  let root_ino _ = Layout.root_ino
  let lookup t ~dir name = Pmfs.lookup t.pmfs ~dir name
  let create_file t ~dir name = Pmfs.create_file t.pmfs ~dir name
  let mkdir t ~dir name = Pmfs.mkdir t.pmfs ~dir name
  let unlink = unlink
  let rmdir t ~dir name = Pmfs.rmdir t.pmfs ~dir name
  let rename = rename
  let readdir t ~dir = Pmfs.readdir t.pmfs ~dir
  let stat t ~ino = Pmfs.stat_of t.pmfs ino

  let read t ~ino ~off ~len ~into ~into_off =
    read t ~ino ~off ~len ~into ~into_off

  let write t ~ino ~off ~src ~src_off ~len ~sync =
    write t ~ino ~off ~src ~src_off ~len ~sync

  let truncate t ~ino ~size = truncate t ~ino ~size
  let fsync t ~ino = fsync t ~ino
  let mmap t ~ino = mmap t ~ino
  let munmap t ~ino = munmap t ~ino
  let msync t ~ino = msync t ~ino
  let sync_all = sync_all
  let unmount = unmount
end

module Vfs_layer = Hinfs_vfs.Vfs.Make (Backend)

let handle t = Vfs_layer.handle t
