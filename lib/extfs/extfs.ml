(* EXT2/EXT4-like block file system over NVMMBD + the OS page cache.

   These are the paper's traditional baselines (Table 3):
   - [Ext2]     no journaling; dirty pages written back by fsync, eviction
                pressure, and the pdflush-like daemon;
   - [Ext4]     ordered-mode jbd-style journaling of metadata blocks, with
                a 5 s commit daemon, data flushed before each commit;
   - [Ext4_dax] the DAX patch: file data bypasses the page cache and moves
                directly between the user buffer and NVMM, while metadata
                still takes the cache-and-journal path (the paper's
                explanation for EXT4-DAX's weak metadata performance).

   Every cached data or metadata access pays the double-copy and the
   generic block layer overhead — exactly the costs Fig. 3a attributes to
   this architecture. *)

module Proc = Hinfs_sim.Proc
module Engine = Hinfs_sim.Engine
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Blockdev = Hinfs_blockdev.Blockdev
module Pagecache = Hinfs_pagecache.Pagecache
module Bj = Hinfs_journal.Block_journal
module Bitmap = Hinfs_structures.Bitmap
module Errno = Hinfs_vfs.Errno
module Types = Hinfs_vfs.Types
module Obs = Hinfs_obs.Obs
module Irec = Elayout.Irec

type mode = Ext2 | Ext4 | Ext4_dax

let mode_name = function
  | Ext2 -> "ext2+nvmmbd"
  | Ext4 -> "ext4+nvmmbd"
  | Ext4_dax -> "ext4-dax"

type t = {
  bdev : Blockdev.t;
  cache : Pagecache.t;
  geo : Elayout.geometry;
  mode : mode;
  journal : Bj.t option;
  journaled_pages : (int, Pagecache.page) Hashtbl.t;
  bbm : Bitmap.t; (* DRAM mirror of the data-block bitmap *)
  ibm : Bitmap.t; (* DRAM mirror of the inode bitmap *)
  sync_mount : bool;
  mutable mounted : bool;
  mutable stopping : bool;
  mutable daemons_started : bool;
}

let device t = Blockdev.device t.bdev
let bdev t = t.bdev
let now t = Engine.now (Device.engine (device t))
let block_size t = t.geo.Elayout.block_size
let mode t = t.mode

let mcat = Stats.Other

(* --- metadata access through the page cache (+ journal in EXT4 modes) --- *)

(* Content provider for jbd: the freshest image of the block at commit
   time. *)
let block_image t block () =
  match Pagecache.find t.cache block with
  | Some _ ->
    (* Read the cached bytes without timing (the journal write itself is
       timed through the block device). *)
    Pagecache.with_page t.cache ~cat:mcat ~block Bytes.copy
  | None -> Blockdev.peek_block t.bdev block

let register_journaled t block =
  match t.journal with
  | None -> ()
  | Some bj ->
    Bj.journal_metadata bj ~block ~content:(block_image t block);
    if not (Hashtbl.mem t.journaled_pages block) then begin
      match Pagecache.find t.cache block with
      | Some page ->
        (* Keep journaled metadata in cache until the commit checkpoints
           it (jbd2 pins journaled buffers). *)
        Pagecache.pin page;
        Hashtbl.replace t.journaled_pages block page
      | None -> ()
    end

let meta_modify t ~block f =
  let result = Pagecache.modify t.cache ~cat:mcat ~block f in
  register_journaled t block;
  result

let meta_read t ~block f = Pagecache.with_page t.cache ~cat:mcat ~block f

let commit_journal t =
  match t.journal with
  | None -> ()
  | Some bj ->
    Bj.commit bj;
    Hashtbl.iter (fun _block page -> Pagecache.unpin page) t.journaled_pages;
    Hashtbl.reset t.journaled_pages

(* --- allocation (DRAM mirrors + on-disk bitmap blocks) --- *)

let set_bitmap_bit t ~bitmap_start ~index value =
  let bits_per_block = block_size t * 8 in
  let block = bitmap_start + (index / bits_per_block) in
  let bit = index mod bits_per_block in
  meta_modify t ~block (fun bytes ->
      let byte = Bytes.get_uint8 bytes (bit / 8) in
      let mask = 1 lsl (bit mod 8) in
      let byte = if value then byte lor mask else byte land lnot mask in
      Bytes.set_uint8 bytes (bit / 8) byte)

let alloc_data_block t =
  match Bitmap.find_first_clear t.bbm with
  | None -> Errno.raise_error ENOSPC "device full"
  | Some i ->
    Bitmap.set t.bbm i;
    set_bitmap_bit t ~bitmap_start:t.geo.Elayout.bbm_start ~index:i true;
    t.geo.Elayout.data_start + i

let free_data_block t block =
  let i = block - t.geo.Elayout.data_start in
  if i < 0 || not (Bitmap.get t.bbm i) then
    invalid_arg "Extfs.free_data_block: bad block";
  Bitmap.clear t.bbm i;
  set_bitmap_bit t ~bitmap_start:t.geo.Elayout.bbm_start ~index:i false;
  (* jbd2 "forget": never journal or checkpoint a freed block, and release
     its journal pin so invalidation does not wait for the next commit. *)
  (match t.journal with
  | Some bj ->
    Bj.forget bj ~block;
    (match Hashtbl.find_opt t.journaled_pages block with
    | Some page ->
      Pagecache.unpin page;
      Hashtbl.remove t.journaled_pages block
    | None -> ())
  | None -> ());
  Pagecache.invalidate t.cache block

let alloc_inode_num t =
  match Bitmap.find_first_clear t.ibm with
  | None -> Errno.raise_error ENOSPC "out of inodes"
  | Some i ->
    Bitmap.set t.ibm i;
    set_bitmap_bit t ~bitmap_start:t.geo.Elayout.ibm_start ~index:i true;
    i + 1

let free_inode_num t ino =
  Bitmap.clear t.ibm (ino - 1);
  set_bitmap_bit t ~bitmap_start:t.geo.Elayout.ibm_start ~index:(ino - 1) false

let free_data_blocks t = Bitmap.count_clear t.bbm

let journal_commits t =
  match t.journal with None -> 0 | Some bj -> Bj.commits bj

(* --- inode access --- *)

let with_inode t ino f =
  let block = Irec.block_of t.geo ino in
  let base = Irec.offset_of t.geo ino in
  meta_read t ~block (fun bytes -> f bytes ~base)

let modify_inode t ino f =
  let block = Irec.block_of t.geo ino in
  let base = Irec.offset_of t.geo ino in
  meta_modify t ~block (fun bytes -> f bytes ~base)

let check_ino t ino =
  if ino < 1 || ino > t.geo.Elayout.inode_count
     || not (with_inode t ino (fun b ~base -> Irec.in_use b ~base))
  then Errno.raise_error EBADF "bad inode %d" ino

let inode_size t ino = with_inode t ino (fun b ~base -> Irec.size b ~base)

let stat_of t ino =
  check_ino t ino;
  with_inode t ino (fun b ~base ->
      {
        Types.ino;
        kind =
          (if Irec.kind b ~base = Irec.kind_directory then Types.Directory
           else Types.Regular);
        size = Irec.size b ~base;
        nlink = Irec.links b ~base;
        blocks = Irec.blocks b ~base;
        mtime_ns = Irec.mtime b ~base;
      })

(* --- block mapping: direct / indirect / double indirect --- *)

(* Allocate and zero-initialise a block used as an indirect pointer block
   (metadata). *)
let alloc_pointer_block t =
  let block = alloc_data_block t in
  Pagecache.zero_block t.cache ~cat:mcat ~block;
  register_journaled t block;
  block

let read_ptr_block t ~block idx =
  meta_read t ~block (fun bytes ->
      Int32.to_int (Bytes.get_int32_le bytes (4 * idx)))

let write_ptr_block t ~block idx value =
  meta_modify t ~block (fun bytes ->
      Bytes.set_int32_le bytes (4 * idx) (Int32.of_int value))

(* Map a logical file block to a device block. With [alloc] missing levels
   are allocated; returns [(block, fresh)] or [None] for an unmapped hole.
   Counts fresh data blocks on the inode. *)
let get_block t ~ino ~fblock ~alloc =
  if fblock < 0 then invalid_arg "Extfs.get_block: negative file block";
  if fblock >= Elayout.max_fblocks t.geo then
    Errno.raise_error EFBIG "file block %d beyond double-indirect reach" fblock;
  let p = Elayout.ptrs_per_block t.geo in
  let fresh_data () =
    let block = alloc_data_block t in
    modify_inode t ino (fun b ~base ->
        Irec.set_blocks b ~base (Irec.blocks b ~base + 1));
    block
  in
  if fblock < Elayout.direct_ptrs then begin
    let cur = with_inode t ino (fun b ~base -> Irec.direct b ~base fblock) in
    if cur <> 0 then Some (cur, false)
    else if not alloc then None
    else begin
      let block = fresh_data () in
      modify_inode t ino (fun b ~base -> Irec.set_direct b ~base fblock block);
      Some (block, true)
    end
  end
  else if fblock < Elayout.direct_ptrs + p then begin
    let idx = fblock - Elayout.direct_ptrs in
    let ind = with_inode t ino (fun b ~base -> Irec.indirect b ~base) in
    let ind =
      if ind <> 0 then Some ind
      else if not alloc then None
      else begin
        let block = alloc_pointer_block t in
        modify_inode t ino (fun b ~base -> Irec.set_indirect b ~base block);
        Some block
      end
    in
    match ind with
    | None -> None
    | Some ind ->
      let cur = read_ptr_block t ~block:ind idx in
      if cur <> 0 then Some (cur, false)
      else if not alloc then None
      else begin
        let block = fresh_data () in
        write_ptr_block t ~block:ind idx block;
        Some (block, true)
      end
  end
  else begin
    let rest = fblock - Elayout.direct_ptrs - p in
    let outer = rest / p and inner = rest mod p in
    let dind = with_inode t ino (fun b ~base -> Irec.dindirect b ~base) in
    let dind =
      if dind <> 0 then Some dind
      else if not alloc then None
      else begin
        let block = alloc_pointer_block t in
        modify_inode t ino (fun b ~base -> Irec.set_dindirect b ~base block);
        Some block
      end
    in
    match dind with
    | None -> None
    | Some dind -> (
      let mid = read_ptr_block t ~block:dind outer in
      let mid =
        if mid <> 0 then Some mid
        else if not alloc then None
        else begin
          let block = alloc_pointer_block t in
          write_ptr_block t ~block:dind outer block;
          Some block
        end
      in
      match mid with
      | None -> None
      | Some mid ->
        let cur = read_ptr_block t ~block:mid inner in
        if cur <> 0 then Some (cur, false)
        else if not alloc then None
        else begin
          let block = fresh_data () in
          write_ptr_block t ~block:mid inner block;
          Some (block, true)
        end)
  end

(* Iterate mapped data blocks of a file as (fblock, block). *)
let iter_file_blocks t ~ino f =
  let bs = block_size t in
  let size = inode_size t ino in
  let nblocks = (size + bs - 1) / bs in
  for fblock = 0 to nblocks - 1 do
    match get_block t ~ino ~fblock ~alloc:false with
    | Some (block, _) -> f fblock block
    | None -> ()
  done

(* Free every data and pointer block of a file. *)
let free_file_blocks t ~ino =
  let p = Elayout.ptrs_per_block t.geo in
  with_inode t ino (fun b ~base ->
      for i = 0 to Elayout.direct_ptrs - 1 do
        let blk = Irec.direct b ~base i in
        if blk <> 0 then free_data_block t blk
      done)
  |> ignore;
  let free_indirect ind =
    if ind <> 0 then begin
      for i = 0 to p - 1 do
        let blk = read_ptr_block t ~block:ind i in
        if blk <> 0 then free_data_block t blk
      done;
      free_data_block t ind
    end
  in
  let ind = with_inode t ino (fun b ~base -> Irec.indirect b ~base) in
  free_indirect ind;
  let dind = with_inode t ino (fun b ~base -> Irec.dindirect b ~base) in
  if dind <> 0 then begin
    for i = 0 to p - 1 do
      let mid = read_ptr_block t ~block:dind i in
      free_indirect mid
    done;
    free_data_block t dind
  end

(* --- data path --- *)

let is_dax t = t.mode = Ext4_dax

let read t ~ino ~off ~len ~into ~into_off =
  check_ino t ino;
  let bs = block_size t in
  let size = inode_size t ino in
  let len = if off >= size then 0 else min len (size - off) in
  let cat = Stats.Read_access in
  let rec copy done_ =
    if done_ < len then begin
      let pos = off + done_ in
      let fblock = pos / bs in
      let in_block = pos mod bs in
      let chunk = min (bs - in_block) (len - done_) in
      (match get_block t ~ino ~fblock ~alloc:false with
      | Some (block, _) ->
        if is_dax t then
          Device.read (device t) ~cat
            ~addr:((block * bs) + in_block)
            ~len:chunk ~into ~off:(into_off + done_)
        else
          Pagecache.read t.cache ~cat ~block ~off:in_block ~len:chunk ~into
            ~into_off:(into_off + done_)
      | None ->
        Bytes.fill into (into_off + done_) chunk '\000';
        Device.charge_memcpy (device t) cat `Read chunk);
      copy (done_ + chunk)
    end
  in
  copy 0;
  len

(* Flush a file's cached data pages to the device (ordered data / fsync). *)
let flush_file_data ?background t ~ino =
  iter_file_blocks t ~ino (fun _fblock block ->
      Pagecache.flush_block ?background t.cache ~cat:Stats.Write_access block)

let fsync t ~ino =
  check_ino t ino;
  match t.mode with
  | Ext2 ->
    (* No journal: write the file's dirty data pages and its inode (plus
       bitmap) metadata pages. *)
    flush_file_data t ~ino;
    Pagecache.flush_block t.cache ~cat:mcat (Irec.block_of t.geo ino)
  | Ext4 ->
    flush_file_data t ~ino;
    commit_journal t
  | Ext4_dax ->
    (* Data reached NVMM at write time (DAX); metadata commits now. *)
    Device.mfence (device t) ~cat:mcat;
    commit_journal t

let write t ~ino ~off ~src ~src_off ~len ~sync =
  check_ino t ino;
  let bs = block_size t in
  let size = inode_size t ino in
  let cat = Stats.Write_access in
  let touched = ref [] in
  let rec copy done_ =
    if done_ < len then begin
      let pos = off + done_ in
      let fblock = pos / bs in
      let in_block = pos mod bs in
      let chunk = min (bs - in_block) (len - done_) in
      let block, fresh =
        match get_block t ~ino ~fblock ~alloc:true with
        | Some (block, fresh) -> (block, fresh)
        | None -> assert false
      in
      if is_dax t then begin
        if fresh then begin
          (* Zero uncovered parts of a fresh block (no cache to zero). *)
          if in_block > 0 then
            Device.zero_nt (device t) ~cat ~addr:(block * bs) ~len:in_block;
          if in_block + chunk < bs then
            Device.zero_nt (device t) ~cat
              ~addr:((block * bs) + in_block + chunk)
              ~len:(bs - in_block - chunk)
        end;
        Device.write_nt (device t) ~cat
          ~addr:((block * bs) + in_block)
          ~src ~off:(src_off + done_) ~len:chunk
      end
      else begin
        if fresh then Pagecache.zero_block t.cache ~cat ~block;
        Pagecache.write t.cache ~cat ~block ~off:in_block ~src
          ~src_off:(src_off + done_) ~len:chunk;
        touched := block :: !touched
      end;
      copy (done_ + chunk)
    end
  in
  copy 0;
  if is_dax t then Device.mfence (device t) ~cat;
  let new_size = max size (off + len) in
  modify_inode t ino (fun b ~base ->
      if new_size <> size then Irec.set_size b ~base new_size;
      Irec.set_mtime b ~base (now t));
  (* Ordered mode: the journal must flush this data before committing the
     metadata that references it. *)
  (match t.journal, !touched with
  | Some bj, (_ :: _ as blocks) ->
    Bj.add_ordered_data bj (fun () ->
        Pagecache.flush_blocks t.cache ~cat blocks)
  | _ -> ());
  if sync || t.sync_mount then fsync t ~ino;
  len

let truncate t ~ino ~size =
  check_ino t ino;
  let bs = block_size t in
  let old_size = inode_size t ino in
  if size < old_size then begin
    let keep_blocks = (size + bs - 1) / bs in
    let old_blocks = (old_size + bs - 1) / bs in
    let freed = ref 0 in
    for fblock = keep_blocks to old_blocks - 1 do
      match get_block t ~ino ~fblock ~alloc:false with
      | Some (block, _) ->
        free_data_block t block;
        incr freed;
        (* Zero the pointer so later extends see a hole. *)
        if fblock < Elayout.direct_ptrs then
          modify_inode t ino (fun b ~base -> Irec.set_direct b ~base fblock 0)
        else begin
          let p = Elayout.ptrs_per_block t.geo in
          if fblock < Elayout.direct_ptrs + p then begin
            let ind = with_inode t ino (fun b ~base -> Irec.indirect b ~base) in
            write_ptr_block t ~block:ind (fblock - Elayout.direct_ptrs) 0
          end
          else begin
            let rest = fblock - Elayout.direct_ptrs - p in
            let dind =
              with_inode t ino (fun b ~base -> Irec.dindirect b ~base)
            in
            let mid = read_ptr_block t ~block:dind (rest / p) in
            write_ptr_block t ~block:mid (rest mod p) 0
          end
        end
      | None -> ()
    done;
    (* Zero the tail of the last kept block. *)
    let tail = size mod bs in
    if tail <> 0 then begin
      match get_block t ~ino ~fblock:(size / bs) ~alloc:false with
      | Some (block, _) ->
        if is_dax t then begin
          let zeros = Bytes.make (bs - tail) '\000' in
          Device.write_nt (device t) ~cat:mcat
            ~addr:((block * bs) + tail)
            ~src:zeros ~off:0 ~len:(bs - tail)
        end
        else
          Pagecache.write t.cache ~cat:mcat ~block ~off:tail
            ~src:(Bytes.make (bs - tail) '\000')
            ~src_off:0 ~len:(bs - tail)
      | None -> ()
    end;
    modify_inode t ino (fun b ~base ->
        Irec.set_blocks b ~base (Irec.blocks b ~base - !freed))
  end;
  modify_inode t ino (fun b ~base ->
      Irec.set_size b ~base size;
      Irec.set_mtime b ~base (now t))

(* --- directory entries (64-byte records in dir data blocks) --- *)

let dirent_size = 64
let max_name_len = 55

let check_name name =
  if String.length name = 0 || String.length name > max_name_len then
    Errno.raise_error EINVAL "name %S too long (max %d)" name max_name_len

let dirents_per_block t = block_size t / dirent_size

(* Iterate live (slot_block, slot_index, name, ino); stop on [f] = false. *)
let dir_iter t ~dir f =
  let bs = block_size t in
  let nblocks = inode_size t dir / bs in
  let per_block = dirents_per_block t in
  let rec block_loop fblock =
    if fblock < nblocks then begin
      match get_block t ~ino:dir ~fblock ~alloc:false with
      | None -> block_loop (fblock + 1)
      | Some (block, _) ->
        let entries =
          meta_read t ~block (fun bytes ->
              let acc = ref [] in
              for slot = per_block - 1 downto 0 do
                let base = slot * dirent_size in
                let ino = Int32.to_int (Bytes.get_int32_le bytes base) in
                if ino <> 0 then begin
                  let name_len = Bytes.get_uint16_le bytes (base + 4) in
                  acc :=
                    (slot, Bytes.sub_string bytes (base + 6) name_len, ino)
                    :: !acc
                end
              done;
              !acc)
        in
        let rec entry_loop = function
          | [] -> block_loop (fblock + 1)
          | (slot, name, ino) :: rest ->
            if f ~block ~slot ~name ~ino then entry_loop rest
        in
        entry_loop entries
    end
  in
  block_loop 0

let dir_find t ~dir name =
  let result = ref None in
  dir_iter t ~dir (fun ~block ~slot ~name:entry ~ino ->
      if String.equal entry name then begin
        result := Some (ino, block, slot);
        false
      end
      else true);
  !result

let lookup t ~dir name =
  check_ino t dir;
  match dir_find t ~dir name with Some (ino, _, _) -> Some ino | None -> None

let readdir t ~dir =
  check_ino t dir;
  let acc = ref [] in
  dir_iter t ~dir (fun ~block:_ ~slot:_ ~name ~ino ->
      acc := (name, ino) :: !acc;
      true);
  List.rev !acc

let write_dirent t ~block ~slot ~name ~ino =
  meta_modify t ~block (fun bytes ->
      let base = slot * dirent_size in
      Bytes.fill bytes base dirent_size '\000';
      Bytes.set_int32_le bytes base (Int32.of_int ino);
      Bytes.set_uint16_le bytes (base + 4) (String.length name);
      Bytes.blit_string name 0 bytes (base + 6) (String.length name))

let dir_add t ~dir name ~ino =
  check_name name;
  let per_block = dirents_per_block t in
  let bs = block_size t in
  (* First free slot in existing blocks. *)
  let found = ref None in
  let nblocks = inode_size t dir / bs in
  (try
     for fblock = 0 to nblocks - 1 do
       match get_block t ~ino:dir ~fblock ~alloc:false with
       | None -> ()
       | Some (block, _) ->
         let slot =
           meta_read t ~block (fun bytes ->
               let free = ref None in
               for slot = per_block - 1 downto 0 do
                 if
                   Int32.to_int
                     (Bytes.get_int32_le bytes (slot * dirent_size))
                   = 0
                 then free := Some slot
               done;
               !free)
         in
         (match slot with
         | Some slot ->
           found := Some (block, slot);
           raise Exit
         | None -> ())
     done
   with Exit -> ());
  let block, slot =
    match !found with
    | Some bs -> bs
    | None ->
      (* Append a fresh dirent block. *)
      let block, fresh =
        match get_block t ~ino:dir ~fblock:nblocks ~alloc:true with
        | Some (block, fresh) -> (block, fresh)
        | None -> assert false
      in
      if fresh then begin
        Pagecache.zero_block t.cache ~cat:mcat ~block;
        register_journaled t block
      end;
      modify_inode t dir (fun b ~base ->
          Irec.set_size b ~base ((nblocks + 1) * bs));
      (block, 0)
  in
  write_dirent t ~block ~slot ~name ~ino

(* The entry a namespace operation acts on, as [(ino, block, slot)]. The
   VFS has decided every namespace outcome (Backend.S), so a missing entry
   is a broken precondition, not an errno. *)
let dir_entry t ~dir name =
  match dir_find t ~dir name with
  | Some found -> found
  | None -> Fmt.invalid_arg "Extfs: no entry %S in directory %d" name dir

let dir_remove t ~dir name =
  let ino, block, slot = dir_entry t ~dir name in
  meta_modify t ~block (fun bytes ->
      Bytes.set_int32_le bytes (slot * dirent_size) 0l);
  ino

(* --- namespace --- *)

let init_inode t ino ~kind =
  modify_inode t ino (fun b ~base ->
      Irec.clear b ~base;
      Irec.set_in_use b ~base true;
      Irec.set_kind b ~base kind;
      Irec.set_links b ~base (if kind = Irec.kind_directory then 2 else 1);
      Irec.set_mtime b ~base (now t))

let create_entry t ~dir name ~kind =
  check_ino t dir;
  let ino = alloc_inode_num t in
  init_inode t ino ~kind;
  dir_add t ~dir name ~ino;
  ino

let create_file t ~dir name = create_entry t ~dir name ~kind:Irec.kind_regular
let mkdir t ~dir name = create_entry t ~dir name ~kind:Irec.kind_directory

(* Release a file, or a directory victim (an empty directory replaced by
   rename) the same way. *)
let release_inode t ino =
  (* Invalidate cached data pages, free blocks, free the inode. *)
  iter_file_blocks t ~ino (fun _fblock block ->
      Pagecache.invalidate t.cache block);
  free_file_blocks t ~ino;
  modify_inode t ino (fun b ~base -> Irec.clear b ~base);
  free_inode_num t ino

let unlink t ~dir name =
  check_ino t dir;
  let ino = dir_remove t ~dir name in
  let links = with_inode t ino (fun b ~base -> Irec.links b ~base) in
  if links <= 1 then release_inode t ino
  else modify_inode t ino (fun b ~base -> Irec.set_links b ~base (links - 1))

let rmdir t ~dir name =
  check_ino t dir;
  release_inode t (dir_remove t ~dir name)

let rename t ~src_dir ~src ~dst_dir ~dst =
  check_ino t src_dir;
  check_ino t dst_dir;
  let ino, _, _ = dir_entry t ~dir:src_dir src in
  (match dir_find t ~dir:dst_dir dst with
  | Some (existing, _, _) ->
    ignore (dir_remove t ~dir:dst_dir dst);
    release_inode t existing
  | None -> ());
  dir_add t ~dir:dst_dir dst ~ino;
  ignore (dir_remove t ~dir:src_dir src)

(* --- mkfs / mount / lifecycle --- *)

let mkfs device ?journal_blocks ?total_blocks () =
  let config = Device.config device in
  let block_size = config.Config.block_size in
  (* [total_blocks] lets a durability tier (lib/nvcache) reserve the tail
     of the device for itself; the reduced geometry persists in the
     superblock so mount needs no matching parameter. *)
  let total_blocks =
    match total_blocks with Some n -> n | None -> Config.blocks config
  in
  if total_blocks < 1 || total_blocks > Config.blocks config then
    invalid_arg "Extfs.mkfs: bad total_blocks";
  let geo =
    Elayout.geometry_of ?journal_blocks ~block_size ~total_blocks ()
  in
  let zero = Bytes.make block_size '\000' in
  for b = 0 to geo.Elayout.data_start - 1 do
    Device.poke device ~addr:(b * block_size) ~src:zero ~off:0 ~len:block_size
  done;
  let sb = Bytes.make block_size '\000' in
  Elayout.write_superblock_bytes geo sb;
  Device.poke device ~addr:0 ~src:sb ~off:0 ~len:block_size;
  (* Root inode. *)
  let itable = Bytes.make block_size '\000' in
  Irec.set_in_use itable ~base:0 true;
  Irec.set_kind itable ~base:0 Irec.kind_directory;
  Irec.set_links itable ~base:0 2;
  Device.poke device
    ~addr:(geo.Elayout.itable_start * block_size)
    ~src:itable ~off:0 ~len:block_size;
  (* Inode bitmap: mark root allocated. *)
  let ibm = Bytes.make block_size '\000' in
  Bytes.set_uint8 ibm 0 1;
  Device.poke device
    ~addr:(geo.Elayout.ibm_start * block_size)
    ~src:ibm ~off:0 ~len:block_size

let load_bitmap device geo ~start ~blocks ~bits =
  let block_size = geo.Elayout.block_size in
  let bitmap = Bitmap.create bits in
  for b = 0 to blocks - 1 do
    let bytes =
      Device.peek_persistent device ~addr:((start + b) * block_size)
        ~len:block_size
    in
    let base = b * block_size * 8 in
    for bit = 0 to (block_size * 8) - 1 do
      if base + bit < bits then
        if Bytes.get_uint8 bytes (bit / 8) land (1 lsl (bit mod 8)) <> 0 then
          Bitmap.set bitmap (base + bit)
    done
  done;
  bitmap

let mount device ~mode ?(sync_mount = false) ?(cache_pages = 4096) () =
  let config = Device.config device in
  let block_size = config.Config.block_size in
  let sb = Device.peek_persistent device ~addr:0 ~len:block_size in
  match Elayout.read_superblock_bytes ~block_size sb with
  | None -> Errno.raise_error EINVAL "no EXTF superblock on device"
  | Some geo ->
    let bdev = Blockdev.create device in
    (* Journal replay before anything else (EXT4 modes). *)
    if mode <> Ext2 then
      ignore
        (Bj.recover bdev ~first_block:geo.Elayout.journal_start
           ~blocks:geo.Elayout.journal_blocks);
    let cache = Pagecache.create bdev ~capacity_pages:cache_pages in
    let journal =
      if mode = Ext2 then None
      else
        Some
          (Bj.create bdev ~first_block:geo.Elayout.journal_start
             ~blocks:geo.Elayout.journal_blocks)
    in
    let bbm =
      load_bitmap device geo ~start:geo.Elayout.bbm_start
        ~blocks:geo.Elayout.bbm_blocks
        ~bits:(geo.Elayout.total_blocks - geo.Elayout.data_start)
    in
    let ibm =
      load_bitmap device geo ~start:geo.Elayout.ibm_start
        ~blocks:geo.Elayout.ibm_blocks ~bits:geo.Elayout.inode_count
    in
    {
      bdev;
      cache;
      geo;
      mode;
      journal;
      journaled_pages = Hashtbl.create 64;
      bbm;
      ibm;
      sync_mount;
      mounted = true;
      stopping = false;
      daemons_started = false;
    }

(* jbd commits the running transaction every 5 s. *)
let commit_interval_ns = 5_000_000_000L

(* pdflush + periodic jbd commit daemons. Call from inside a process. *)
let start_daemons t =
  if t.daemons_started then invalid_arg "Extfs: daemons already started";
  t.daemons_started <- true;
  Pagecache.start_flusher t.cache;
  if t.journal <> None then
    Proc.spawn ~name:"jbd-commit" (fun () ->
        let rec loop () =
          if not t.stopping then begin
            Proc.delay commit_interval_ns;
            if not t.stopping then begin
              commit_journal t;
              loop ()
            end
          end
        in
        loop ())

let sync_all t =
  Pagecache.flush_all t.cache ~cat:Stats.Write_access;
  commit_journal t

let unmount t =
  if t.mounted then begin
    t.mounted <- false;
    t.stopping <- true;
    Pagecache.stop_flusher t.cache;
    sync_all t
  end

let mkfs_and_mount device ~mode ?journal_blocks ?total_blocks ?sync_mount
    ?cache_pages ?(daemons = false) () =
  mkfs device ?journal_blocks ?total_blocks ();
  let t = mount device ~mode ?sync_mount ?cache_pages () in
  if daemons then start_daemons t;
  t

(* --- Backend.S instance --- *)

module Backend : Hinfs_vfs.Backend.S with type t = t = struct
  type nonrec t = t

  let fs_name t = mode_name t.mode
  let device = device
  let sync_mount t = t.sync_mount
  let root_ino _ = Elayout.root_ino
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

  (* mmap through the page cache (or direct for DAX) is modelled as
     fsync-equivalent synchronisation: before the mapping is exposed the
     file's in-flight updates must be ordered on the medium with full
     fsync semantics (data flush plus journal commit / DAX fence), not
     just a data writeback — the same ordering the Pmfs.mmap path pays. *)
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
