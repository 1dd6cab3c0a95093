(* Cowfs: copy-on-write mode of the PMFS substrate (notafs direction).

   Committed state is never mutated in place. Every mutating operation
   builds shadow copies off to the side — a fresh inode-map path, fresh
   tree nodes, fresh data blocks, all written with non-temporal stores —
   and publication is a single fenced, CRC-32C'd root-descriptor swap
   ({!Hinfs_journal.Root_swap}: two slots, newest-valid wins at mount).
   Consequences:

   - every legal crash image mounts to *some* committed state (the crash
     either persisted the new descriptor, in which case its payload was
     fenced first, or it did not, in which case the shadow blocks are
     unreachable garbage);
   - recovery is a no-op — mount just picks the newest valid root;
   - whole-FS snapshots/clones/rollback and failure-atomic multi-file
     transactions fall out of the same mechanism: a snapshot pins an old
     imap root, a transaction widens the commit window.

   On-NVMM layout (all pointers are block numbers, little-endian):

     block 0            two 64-byte root-descriptor slots (Root_swap)
     blocks [1, total)  one pool for everything else, tracked by a
                        persistent per-block u16 refcount table

   Descriptor payload: ptrs[0] = inode-map root, ptrs[1] = refcount-table
   root, ptrs[2] = snapshot table block, ptrs[3] = next snapshot id,
   ptrs[4] = inode count.

   The inode map is a single-level pointer page (bs/8 slots) of inode
   pages, each holding bs/128 fixed 128-byte inodes. Inodes, file/dir
   block trees and dirents are the PMFS format, decoded and encoded
   through {!Media}; only the commit mechanics here are cowfs's own.

   The refcount of a block is the number of live roots that reach it:
   the committed working root (which also reaches the refcount pages and
   the snapshot table) plus one per snapshot. Refcounts are folded in at
   commit time by a fixpoint (updating a refcount page may itself CoW
   that page, which adds more deltas); blocks that reach zero are handed
   back to the allocator only *after* the descriptor swap is durable, so
   no crash image can observe their reuse. *)

module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Allocator = Hinfs_nvmm.Allocator
module Fault = Hinfs_nvmm.Fault
module Root_swap = Hinfs_journal.Root_swap
module Stats = Hinfs_stats.Stats
module Engine = Hinfs_sim.Engine
module Rwlock = Hinfs_sim.Rwlock
module Errno = Hinfs_vfs.Errno
module Obs = Hinfs_obs.Obs

let root_ino = 1
let mcat = Stats.Other
let ccat = Stats.Journal

type snap = { snap_id : int; snap_imap : int; snap_seq : int64 }

type t = {
  device : Device.t;
  bs : int;
  total_blocks : int;
  inode_count : int;
  balloc : Allocator.t;
  ialloc : Allocator.t;
  lock : Rwlock.t;
  mutable committed : Root_swap.desc;
  (* Working (uncommitted) root pointers; equal to [committed]'s between
     commits. *)
  mutable imap_root : int;
  mutable refcount_root : int;
  mutable snap_table : int;
  mutable next_snap_id : int;
  (* Blocks allocated since the last commit: writable in place, invisible
     to any crash image until the swap. *)
  shadow : (int, unit) Hashtbl.t;
  (* Pending refcount deltas (block -> net delta) to fold in at commit:
     +1 per shadow allocation, -1 per dropped reference, plus the
     snapshot/rollback walk contributions. *)
  deltas : (int, int) Hashtbl.t;
  (* DRAM mirror of the *committed* refcount table. *)
  refs : int array;
  mutable ino_news : int list; (* inodes allocated this window *)
  mutable ino_released : int list; (* inode frees deferred to commit *)
  mutable txn_depth : int;
  mutable commits : int;
  mutable mounted : bool;
  mutable read_only : string option;
  mutable commit_fault : (unit -> bool) option;
  (* Test hook: skip the payload fence before the root swap, making the
     descriptor and its payload race in the same fence window (the torn
     root swap the crashmc vacuity fixture must catch). *)
  mutable sabotage_skip_payload_fence : bool;
}

let device t = t.device
let block_size t = t.bs
let total_blocks t = t.total_blocks
let inode_count t = t.inode_count
let committed_seq t = t.committed.Root_swap.seq
let commits t = t.commits
let imap_root t = t.imap_root
let refcount_root t = t.refcount_root
let shadow_count t = Hashtbl.length t.shadow
let used_blocks t = Allocator.used_blocks t.balloc
let free_data_blocks t = Allocator.free_blocks t.balloc
let balloc t = t.balloc
let ialloc t = t.ialloc
let txn_depth t = t.txn_depth
let set_commit_fault t f = t.commit_fault <- f
let set_sabotage_torn_root t v = t.sabotage_skip_payload_fence <- v

let set_block_fault_injector t f = Allocator.set_fault_injector t.balloc f
let set_inode_fault_injector t f = Allocator.set_fault_injector t.ialloc f

let read_only t = t.read_only <> None
let read_only_reason t = t.read_only

let check_writable t =
  match t.read_only with
  | None -> ()
  | Some reason ->
    Errno.raise_error EROFS "file system is read-only: %s" reason

let now t = Engine.now (Device.engine t.device)
let baddr t b = b * t.bs
let ptrs_per_block t = t.bs / 8
let inodes_per_page t = t.bs / Media.inode_size
let refs_per_page t = t.bs / 2
let n_refpages t = (t.total_blocks + refs_per_page t - 1) / refs_per_page t
let snap_capacity t = t.bs / 32

(* --- raw field I/O: untimed loads, non-temporal (persistent) stores --- *)

let get_u64i t addr = Int64.to_int (Device.get_u64 t.device addr)

let put_bytes t ~cat ~addr src =
  Device.write_nt t.device ~cat ~addr ~src ~off:0 ~len:(Bytes.length src)

let put_u64 t ~cat addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  put_bytes t ~cat ~addr b

let put_u64i t ~cat addr v = put_u64 t ~cat addr (Int64.of_int v)

let put_u32 t ~cat addr v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  put_bytes t ~cat ~addr b

let put_u16 t ~cat addr v =
  let b = Bytes.create 2 in
  Bytes.set_uint16_le b 0 v;
  put_bytes t ~cat ~addr b

let put_u8 t ~cat addr v =
  let b = Bytes.create 1 in
  Bytes.set_uint8 b 0 v;
  put_bytes t ~cat ~addr b

(* --- bounded retry on transient media faults (data path only) --- *)

let read_or_eio t ~cat ~addr ~len ~into ~off =
  try
    Device.read_retrying t.device ~cat ~addr ~len ~into ~off
  with Fault.Media_error { addr = fault_addr; _ } ->
    Errno.raise_error EIO "uncorrectable NVMM media error at %#x" fault_addr

(* --- shadow-block machinery --- *)

let delta t b d =
  let cur = Option.value ~default:0 (Hashtbl.find_opt t.deltas b) in
  let v = cur + d in
  if v = 0 then Hashtbl.remove t.deltas b else Hashtbl.replace t.deltas b v

let alloc_block t =
  match Allocator.alloc t.balloc with
  | None -> Errno.raise_error ENOSPC "out of NVMM blocks"
  | Some b ->
    Hashtbl.replace t.shadow b ();
    delta t b 1;
    b

let zero_block t ~cat b =
  let zero = Bytes.make t.bs '\000' in
  put_bytes t ~cat ~addr:(baddr t b) zero

let alloc_zeroed t ~cat =
  let b = alloc_block t in
  zero_block t ~cat b;
  b

(* Drop one reference to [b]. A same-window shadow block goes straight
   back to the allocator (its +1 and -1 cancel); a committed block keeps
   its medium copy intact and just queues a -1 for the commit fixpoint. *)
let drop_block t b =
  if Hashtbl.mem t.shadow b then begin
    Hashtbl.remove t.shadow b;
    delta t b (-1);
    Allocator.free t.balloc b
  end
  else delta t b (-1)

(* Copy-on-write of a metadata block (untimed load, it is cache-hot
   metadata; the store is a timed non-temporal stream). *)
let cow_meta t ~cat b =
  if Hashtbl.mem t.shadow b then b
  else begin
    let nb = alloc_block t in
    let src = Device.peek t.device ~addr:(baddr t b) ~len:t.bs in
    put_bytes t ~cat ~addr:(baddr t nb) src;
    delta t b (-1);
    nb
  end

(* Copy-on-write of a data block; [copy = false] when the caller is about
   to overwrite the whole block. *)
let cow_data t ~cat ~copy b =
  if Hashtbl.mem t.shadow b then b
  else begin
    let nb = alloc_block t in
    if copy then begin
      let buf = Bytes.create t.bs in
      read_or_eio t ~cat ~addr:(baddr t b) ~len:t.bs ~into:buf ~off:0;
      put_bytes t ~cat ~addr:(baddr t nb) buf
    end;
    delta t b (-1);
    nb
  end

(* --- inode map --- *)

let imap_slot_addr t ~imap ino = baddr t imap + (8 * ((ino - 1) / inodes_per_page t))

let ipage_at t ~imap ino = get_u64i t (imap_slot_addr t ~imap ino)

let inode_addr_in t ~ipage ino =
  baddr t ipage + (((ino - 1) mod inodes_per_page t) * Media.inode_size)

let inode_addr_at t ~imap ino =
  let pg = ipage_at t ~imap ino in
  if pg = 0 then None else Some (inode_addr_in t ~ipage:pg ino)

module F = Media.Inode

(* Address of [ino] under [imap] if that inode is in use. *)
let live_inode_at t ~imap ino =
  if ino < 1 || ino > t.inode_count then None
  else
    match inode_addr_at t ~imap ino with
    | Some ia when F.in_use t.device ia -> Some ia
    | _ -> None

let in_use_at t ~imap ino = live_inode_at t ~imap ino <> None

(* Shadow the inode's map path (imap root + its inode page); returns the
   inode's (shadow, in-place-writable) field address. Allocates the page
   if the slot was never populated. *)
let shadow_inode t ~cat ino =
  let ir = cow_meta t ~cat t.imap_root in
  t.imap_root <- ir;
  let slot_addr = imap_slot_addr t ~imap:ir ino in
  let pg = get_u64i t slot_addr in
  let pg' =
    if pg = 0 then begin
      let npg = alloc_zeroed t ~cat in
      put_u64i t ~cat slot_addr npg;
      npg
    end
    else begin
      let npg = cow_meta t ~cat pg in
      if npg <> pg then put_u64i t ~cat slot_addr npg;
      npg
    end
  in
  inode_addr_in t ~ipage:pg' ino

let is_dir_at t ~imap ino =
  match inode_addr_at t ~imap ino with
  | Some ia -> F.kind t.device ia = F.kind_directory
  | None -> false

(* Address of in-use [ino] under the working root, or EBADF. *)
let live_inode t ino =
  match live_inode_at t ~imap:t.imap_root ino with
  | Some ia -> ia
  | None -> Errno.raise_error EBADF "bad inode %d" ino

let check_ino t ino = ignore (live_inode t ino)
let stat_of t ino = F.stat t.device ~ino (live_inode t ino)

(* --- block trees: the PMFS radix format ({!Media.Tree}), shadowed --- *)

module Tree = Media.Tree

let lookup_block_at t ~imap ~ino ~fblock =
  match inode_addr_at t ~imap ino with
  | None -> None
  | Some ia -> Tree.lookup t.device ~ia fblock

(* Find-or-create the (shadowed, writable) home block of [fblock]. [ia] is
   the inode's shadowed field address. Returns [(block, fresh)]. *)
let ensure_data_block t ~cat ~ia ~fblock ~full =
  let root = ref (F.tree_root t.device ia) in
  let height = ref (F.height t.device ia) in
  let set_root v = put_u64i t ~cat (ia + F.tree_root_off) v in
  let set_height v = put_u32 t ~cat (ia + F.height_off) v in
  (* Grow the tree until [fblock] is addressable. *)
  if !root = 0 then begin
    let h = Tree.needed_height t.device fblock in
    if h > 0 then begin
      root := alloc_zeroed t ~cat;
      set_root !root
    end;
    if h <> !height then begin
      height := h;
      set_height h
    end
  end
  else
    while Tree.capacity t.device !height <= fblock do
      let nr = alloc_zeroed t ~cat in
      put_u64i t ~cat (Tree.ptr_addr t.device nr 0) !root;
      root := nr;
      set_root nr;
      incr height;
      set_height !height
    done;
  if !height = 0 then
    if !root = 0 then begin
      let b = alloc_block t in
      set_root b;
      (b, true)
    end
    else begin
      let b = cow_data t ~cat ~copy:(not full) !root in
      if b <> !root then set_root b;
      (b, false)
    end
  else begin
    let r = cow_meta t ~cat !root in
    if r <> !root then set_root r;
    let rec walk node level =
      let slot_addr =
        Tree.ptr_addr t.device node (Tree.slot t.device ~level fblock)
      in
      let child = get_u64i t slot_addr in
      if level = 1 then
        if child = 0 then begin
          let b = alloc_block t in
          put_u64i t ~cat slot_addr b;
          (b, true)
        end
        else begin
          let b = cow_data t ~cat ~copy:(not full) child in
          if b <> child then put_u64i t ~cat slot_addr b;
          (b, false)
        end
      else begin
        let c =
          if child = 0 then begin
            let c = alloc_zeroed t ~cat in
            put_u64i t ~cat slot_addr c;
            c
          end
          else begin
            let c = cow_meta t ~cat child in
            if c <> child then put_u64i t ~cat slot_addr c;
            c
          end
        in
        walk c (level - 1)
      end
    in
    walk r !height
  end

(* Drop an entire subtree rooted at [root] ([level] index levels above the
   data blocks; level 0 means [root] is itself a data block). *)
let rec drop_subtree t root level =
  if root <> 0 then begin
    if level >= 1 then
      for s = 0 to Tree.fanout t.device - 1 do
        drop_subtree t (Tree.read_ptr t.device root s) (level - 1)
      done;
    drop_block t root
  end

(* Remove [fblock]'s data block from the tree, if present: shadows the
   path, zeroes the leaf slot, drops the block. Empty interior nodes are
   left in place. Returns true if a data block was dropped. *)
let zap_data_block t ~cat ~ia ~fblock =
  let root = F.tree_root t.device ia in
  let height = F.height t.device ia in
  if Tree.lookup t.device ~ia fblock = None then false
  else if height = 0 then begin
    drop_block t root;
    put_u64i t ~cat (ia + F.tree_root_off) 0;
    true
  end
  else begin
    let r = cow_meta t ~cat root in
    if r <> root then put_u64i t ~cat (ia + F.tree_root_off) r;
    let rec walk node level =
      let slot_addr =
        Tree.ptr_addr t.device node (Tree.slot t.device ~level fblock)
      in
      let child = get_u64i t slot_addr in
      if level = 1 then begin
        drop_block t child;
        put_u64i t ~cat slot_addr 0
      end
      else begin
        let c = cow_meta t ~cat child in
        if c <> child then put_u64i t ~cat slot_addr c;
        walk c (level - 1)
      end
    in
    walk r height;
    true
  end

(* --- directories: the PMFS dirent format ({!Media.Dirent}) --- *)

let dir_at t ~imap dir = Option.get (inode_addr_at t ~imap dir)

let dir_find t ~dir name =
  Media.Dirent.find t.device ~ia:(dir_at t ~imap:t.imap_root dir) name

let write_dirent t ~cat ~block ~slot ~name ~ino =
  put_bytes t ~cat
    ~addr:(baddr t block + (slot * Media.Dirent.size))
    (Media.Dirent.encode ~name ~ino)

(* Insert an entry into [dir] (whose inode must already be shadowed at
   [dir_ia]). CoWs the dirent block; appends a fresh zeroed block when no
   slot is free. *)
let dir_add t ~cat ~dir_ia name ~ino =
  Media.Dirent.check_name name;
  let fblock, slot =
    match Media.Dirent.free_slot t.device ~ia:dir_ia with
    | Some (fblock, _block, slot) -> (fblock, slot)
    | None ->
      (* Append a fresh dirent block and extend the directory. *)
      let nblocks = F.size t.device dir_ia / t.bs in
      let b, fresh = ensure_data_block t ~cat ~ia:dir_ia ~fblock:nblocks ~full:true in
      if fresh then zero_block t ~cat b;
      put_u64 t ~cat (dir_ia + F.size_off)
        (Int64.of_int ((nblocks + 1) * t.bs));
      if fresh then
        put_u64 t ~cat (dir_ia + F.blocks_off)
          (Int64.add (Device.get_u64 t.device (dir_ia + F.blocks_off)) 1L);
      (nblocks, 0)
  in
  let block, _fresh = ensure_data_block t ~cat ~ia:dir_ia ~fblock ~full:false in
  write_dirent t ~cat ~block ~slot ~name ~ino

(* The entry a namespace operation acts on. The VFS has decided every
   namespace outcome (Backend.S), so a missing entry is a broken
   precondition, not an errno. *)
let dir_entry t ~dir name =
  match dir_find t ~dir name with
  | Some f -> f
  | None -> Fmt.invalid_arg "Cowfs: no entry %S in directory %d" name dir

let dir_remove t ~cat ~dir ~dir_ia name =
  let { Media.Dirent.ino; fblock; slot; _ } = dir_entry t ~dir name in
  let block, _ = ensure_data_block t ~cat ~ia:dir_ia ~fblock ~full:false in
  put_u32 t ~cat (baddr t block + (slot * Media.Dirent.size)) 0;
  ino

(* --- snapshot table (32-byte entries: id, imap_root, created_seq) --- *)

let snap_list t =
  let acc = ref [] in
  for i = 0 to snap_capacity t - 1 do
    let addr = baddr t t.snap_table + (32 * i) in
    let id = get_u64i t addr in
    if id <> 0 then
      acc :=
        {
          snap_id = id;
          snap_imap = get_u64i t (addr + 8);
          snap_seq = Device.get_u64 t.device (addr + 16);
        }
        :: !acc
  done;
  List.rev !acc

let snap_find t id = List.find_opt (fun s -> s.snap_id = id) (snap_list t)

let snap_slot_of t id =
  let found = ref None in
  for i = 0 to snap_capacity t - 1 do
    if !found = None && get_u64i t (baddr t t.snap_table + (32 * i)) = id then
      found := Some i
  done;
  !found

let shadow_snap_table t ~cat =
  let nb = cow_meta t ~cat t.snap_table in
  t.snap_table <- nb;
  nb

(* --- reachability walk (fsck, refcount transfers, digests) --- *)

(* Visit every block reachable from [imap]: the imap root, inode pages,
   index nodes and data blocks of every in-use inode. *)
let iter_tree_at t ~imap f =
  f ~block:imap ~kind:`Imap;
  let ipp = inodes_per_page t in
  for slot = 0 to ptrs_per_block t - 1 do
    let pg = get_u64i t (baddr t imap + (8 * slot)) in
    if pg <> 0 then begin
      f ~block:pg ~kind:`Ipage;
      for j = 0 to ipp - 1 do
        let ino = (slot * ipp) + j + 1 in
        match live_inode_at t ~imap ino with
        | None -> ()
        | Some ia ->
          Tree.iter t.device ~ia
            ~data:(fun _ block -> f ~block ~kind:`Data)
            ~index:(fun block -> f ~block ~kind:`Index)
            ()
      done
    end
  done

(* Metadata blocks reachable from the working root besides the imap tree:
   refcount root, refcount pages, snapshot table. *)
let meta_blocks t =
  let pages = ref [] in
  for i = n_refpages t - 1 downto 0 do
    let pg = get_u64i t (baddr t t.refcount_root + (8 * i)) in
    if pg <> 0 then pages := pg :: !pages
  done;
  t.refcount_root :: (!pages @ [ t.snap_table ])

(* Persistent refcount of [b] under the *working* refcount table. *)
let refcount t b =
  let epp = refs_per_page t in
  let pg = get_u64i t (baddr t t.refcount_root + (8 * (b / epp))) in
  if pg = 0 then 0
  else Device.get_u16 t.device (baddr t pg + (2 * (b mod epp)))

let snapshots t = List.map (fun s -> (s.snap_id, s.snap_seq)) (snap_list t)
let snapshot_roots t = List.map (fun s -> (s.snap_id, s.snap_imap)) (snap_list t)

(* --- commit: refcount fixpoint, payload fence, root swap --- *)

let window_dirty t =
  Hashtbl.length t.shadow > 0
  || Hashtbl.length t.deltas > 0
  || t.ino_news <> [] || t.ino_released <> []
  || t.imap_root <> Int64.to_int t.committed.Root_swap.ptrs.(0)
  || t.next_snap_id <> Int64.to_int t.committed.Root_swap.ptrs.(3)

(* Discard the whole uncommitted window: hand shadow blocks and fresh
   inodes back, restore the working pointers from the committed root. *)
let abort_window t =
  Hashtbl.iter (fun b () -> Allocator.free t.balloc b) t.shadow;
  Hashtbl.reset t.shadow;
  Hashtbl.reset t.deltas;
  List.iter (fun ino -> Allocator.free t.ialloc ino) t.ino_news;
  t.ino_news <- [];
  t.ino_released <- [];
  let p = t.committed.Root_swap.ptrs in
  t.imap_root <- Int64.to_int p.(0);
  t.refcount_root <- Int64.to_int p.(1);
  t.snap_table <- Int64.to_int p.(2);
  t.next_snap_id <- Int64.to_int p.(3);
  t.txn_depth <- 0

(* Fold the pending refcount deltas into the persistent table. Updating an
   entry may CoW the refcount page (or the refcount root), which enqueues
   further deltas; the loop runs until no deltas remain. Returns
   [(new_refs, to_free)]: the post-commit refcount of every touched block
   and the committed blocks that dropped to zero. All stores go to shadow
   pages only, so an abort at any point is still net-zero. *)
let fold_refcounts t ~cat =
  let epp = refs_per_page t in
  let new_refs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let get_ref b =
    match Hashtbl.find_opt new_refs b with
    | Some v -> v
    | None -> t.refs.(b)
  in
  let queue = Queue.create () in
  let drain_deltas () =
    Hashtbl.iter (fun b d -> Queue.add (b, d) queue) t.deltas;
    Hashtbl.reset t.deltas
  in
  let shadow_refroot () =
    let nb = cow_meta t ~cat t.refcount_root in
    t.refcount_root <- nb
  in
  let shadow_refpage pidx =
    let slot_addr = baddr t t.refcount_root + (8 * pidx) in
    let pg = get_u64i t slot_addr in
    let npg = cow_meta t ~cat pg in
    if npg <> pg then put_u64i t ~cat slot_addr npg;
    npg
  in
  drain_deltas ();
  while not (Queue.is_empty queue) do
    let b, d = Queue.pop queue in
    if d <> 0 then begin
      if not (Hashtbl.mem t.shadow t.refcount_root) then shadow_refroot ();
      let pg = shadow_refpage (b / epp) in
      let v = get_ref b + d in
      if v < 0 then
        invalid_arg (Fmt.str "Cowfs: refcount of block %d went negative" b);
      Hashtbl.replace new_refs b v;
      put_u16 t ~cat (baddr t pg + (2 * (b mod epp))) v
    end;
    if Queue.is_empty queue then drain_deltas ()
  done;
  let to_free =
    Hashtbl.fold
      (fun b v acc ->
        if v = 0 && not (Hashtbl.mem t.shadow b) then b :: acc else acc)
      new_refs []
  in
  (new_refs, to_free)

let commit_locked t ~cat =
  if window_dirty t then begin
    Obs.span_begin Obs.Snapshot_commit;
    match
      (match t.commit_fault with
      | Some f when f () ->
        Errno.raise_error EIO "injected commit fault before root swap"
      | _ -> ());
      let new_refs, to_free = fold_refcounts t ~cat in
      (* Order the whole shadow payload before publishing the root that
         reaches it. The sabotage hook skips exactly this fence: the
         descriptor then races its own payload inside one fence window —
         the torn-root-swap failure mode crashmc must be able to see. *)
      if not t.sabotage_skip_payload_fence then Device.mfence t.device ~cat;
      let desc =
        {
          Root_swap.seq = Int64.succ t.committed.Root_swap.seq;
          ptrs =
            [|
              Int64.of_int t.imap_root;
              Int64.of_int t.refcount_root;
              Int64.of_int t.snap_table;
              Int64.of_int t.next_snap_id;
              Int64.of_int t.inode_count;
            |];
        }
      in
      Root_swap.commit t.device ~cat ~addr:0 desc;
      (desc, new_refs, to_free)
    with
    | desc, new_refs, to_free ->
      (* The swap is durable: retire the window. Zero-ref blocks are only
         now handed back, so no crash image that mounts the *previous*
         root can see them reused. *)
      t.committed <- desc;
      Hashtbl.iter (fun b v -> t.refs.(b) <- v) new_refs;
      List.iter (fun b -> Allocator.free t.balloc b) to_free;
      List.iter (fun ino -> Allocator.free t.ialloc ino) t.ino_released;
      t.ino_released <- [];
      t.ino_news <- [];
      Hashtbl.reset t.shadow;
      Hashtbl.reset t.deltas;
      t.commits <- t.commits + 1;
      Obs.span_end Obs.Snapshot_commit
    | exception e ->
      Obs.span_end Obs.Snapshot_commit;
      raise e
  end

let maybe_commit t ~cat = if t.txn_depth = 0 then commit_locked t ~cat

(* Every mutating entry point: exclusive lock, EROFS guard, and abort of
   the whole window on any failure (inside an open transaction this
   aborts the transaction — a failed operation poisons it). *)
let with_mutation t ~cat f =
  Rwlock.with_write t.lock (fun () ->
      check_writable t;
      match
        let v = f () in
        maybe_commit t ~cat;
        v
      with
      | v -> v
      | exception e ->
        abort_window t;
        raise e)

let with_read t f = Rwlock.with_read t.lock f

(* --- mkfs / mount --- *)

let compute_inode_count t_bs total_blocks nvmm_size =
  let ipp = t_bs / Media.inode_size in
  let slots = t_bs / 8 in
  let mb = max 1 (nvmm_size / (1024 * 1024)) in
  let want = max 256 (512 * mb) in
  ignore total_blocks;
  min (slots * ipp) ((want + ipp - 1) / ipp * ipp)

let mkfs device () =
  let config = Device.config device in
  let bs = config.Config.block_size in
  let total = Config.blocks config in
  let epp = bs / 2 in
  let n_ref = (total + epp - 1) / epp in
  if total < 6 + n_ref then invalid_arg "Cowfs.mkfs: device too small";
  let inode_count = compute_inode_count bs total config.Config.nvmm_size in
  let b_imap = 1 in
  let b_ipage0 = 2 in
  let b_refroot = 3 in
  let refpages = List.init n_ref (fun i -> 4 + i) in
  let b_snap = 4 + n_ref in
  let zero = Bytes.make bs '\000' in
  List.iter
    (fun b -> Device.poke device ~addr:(b * bs) ~src:zero ~off:0 ~len:bs)
    (b_imap :: b_ipage0 :: b_refroot :: b_snap :: refpages);
  let poke_u64 addr v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    Device.poke device ~addr ~src:b ~off:0 ~len:8
  in
  let poke_u16 addr v =
    let b = Bytes.create 2 in
    Bytes.set_uint16_le b 0 v;
    Device.poke device ~addr ~src:b ~off:0 ~len:2
  in
  (* imap slot 0 -> first inode page; root directory inode 1. *)
  poke_u64 (b_imap * bs) b_ipage0;
  let root = F.encode ~kind:F.kind_directory ~links:2 ~mtime:0L in
  Device.poke device ~addr:(b_ipage0 * bs) ~src:root ~off:0 ~len:Media.inode_size;
  (* refcount root -> pages; every formatted metadata block starts at 1. *)
  List.iteri (fun i pg -> poke_u64 ((b_refroot * bs) + (8 * i)) pg) refpages;
  let set_ref b v =
    let pg = List.nth refpages (b / epp) in
    poke_u16 ((pg * bs) + (2 * (b mod epp))) v
  in
  List.iter (fun b -> set_ref b 1)
    (b_imap :: b_ipage0 :: b_refroot :: b_snap :: refpages);
  let desc =
    {
      Root_swap.seq = 0L;
      ptrs =
        [|
          Int64.of_int b_imap;
          Int64.of_int b_refroot;
          Int64.of_int b_snap;
          1L;
          Int64.of_int inode_count;
        |];
    }
  in
  Root_swap.write_initial device ~addr:0 desc

let mount device () =
  match Root_swap.load device ~addr:0 with
  | Error `Absent -> Errno.raise_error EINVAL "no cowfs root descriptor"
  | Error `Corrupt ->
    Errno.raise_error EIO "both cowfs root descriptor slots are corrupt"
  | Ok desc ->
    let config = Device.config device in
    let bs = config.Config.block_size in
    let total = Config.blocks config in
    let p = desc.Root_swap.ptrs in
    let t =
      {
        device;
        bs;
        total_blocks = total;
        inode_count = Int64.to_int p.(4);
        balloc =
          Allocator.create ~policy:Rolling ~first_block:1 ~count:(total - 1);
        ialloc =
          Allocator.create ~policy:Rolling ~first_block:1
            ~count:(Int64.to_int p.(4));
        lock = Rwlock.create ();
        committed = desc;
        imap_root = Int64.to_int p.(0);
        refcount_root = Int64.to_int p.(1);
        snap_table = Int64.to_int p.(2);
        next_snap_id = Int64.to_int p.(3);
        shadow = Hashtbl.create 64;
        deltas = Hashtbl.create 64;
        refs = Array.make total 0;
        ino_news = [];
        ino_released = [];
        txn_depth = 0;
        commits = 0;
        mounted = true;
        read_only = None;
        commit_fault = None;
        sabotage_skip_payload_fence = false;
      }
    in
    (* Rebuild DRAM state from the persistent refcount table: a block is
       allocated iff some live root reaches it. No recovery pass — the
       committed root is consistent by construction. *)
    for b = 1 to total - 1 do
      let r = refcount t b in
      t.refs.(b) <- r;
      if r > 0 then Allocator.mark_allocated t.balloc b
    done;
    for ino = 1 to t.inode_count do
      if in_use_at t ~imap:t.imap_root ino then
        Allocator.mark_allocated t.ialloc ino
    done;
    t

let mkfs_and_mount device () =
  mkfs device ();
  mount device ()

let attach_faultops t fo =
  let module Faultops = Hinfs_nvmm.Faultops in
  let hook kind =
    match fo with
    | None -> None
    | Some fo -> Some (fun () -> Faultops.check fo kind)
  in
  set_block_fault_injector t (hook Faultops.Block_alloc);
  set_inode_fault_injector t (hook Faultops.Inode_alloc)

(* --- namespace operations --- *)

let lookup t ~dir name =
  with_read t (fun () -> dir_find t ~dir name)
  |> Option.map (fun f -> f.Media.Dirent.ino)

let alloc_inode t =
  match Allocator.alloc t.ialloc with
  | None -> Errno.raise_error ENOSPC "out of inodes"
  | Some ino ->
    t.ino_news <- ino :: t.ino_news;
    ino

let init_inode t ~cat ino ~kind ~links =
  let ia = shadow_inode t ~cat ino in
  put_bytes t ~cat ~addr:ia (F.encode ~kind ~links ~mtime:(now t));
  ia

let touch t ~cat ia = put_u64 t ~cat (ia + F.mtime_off) (now t)

let create_file t ~dir name =
  with_mutation t ~cat:mcat (fun () ->
      check_ino t dir;
      let ino = alloc_inode t in
      ignore (init_inode t ~cat:mcat ino ~kind:F.kind_regular ~links:1);
      let dir_ia = shadow_inode t ~cat:mcat dir in
      dir_add t ~cat:mcat ~dir_ia name ~ino;
      touch t ~cat:mcat dir_ia;
      ino)

let mkdir t ~dir name =
  with_mutation t ~cat:mcat (fun () ->
      check_ino t dir;
      let ino = alloc_inode t in
      ignore (init_inode t ~cat:mcat ino ~kind:F.kind_directory ~links:2);
      let dir_ia = shadow_inode t ~cat:mcat dir in
      dir_add t ~cat:mcat ~dir_ia name ~ino;
      put_u16 t ~cat:mcat (dir_ia + F.links_off)
        (Device.get_u16 t.device (dir_ia + F.links_off) + 1);
      touch t ~cat:mcat dir_ia;
      ino)

(* Drop an inode's tree and mark it free; the inode number goes back to
   the allocator only after the commit is durable. *)
let free_inode t ~cat ino =
  let ia = shadow_inode t ~cat ino in
  drop_subtree t (F.tree_root t.device ia) (F.height t.device ia);
  put_bytes t ~cat ~addr:ia (Bytes.make Media.inode_size '\000');
  if List.mem ino t.ino_news then begin
    t.ino_news <- List.filter (fun i -> i <> ino) t.ino_news;
    Allocator.free t.ialloc ino
  end
  else t.ino_released <- ino :: t.ino_released

let unlink t ~dir name =
  with_mutation t ~cat:mcat (fun () ->
      check_ino t dir;
      let dir_ia = shadow_inode t ~cat:mcat dir in
      let ino = dir_remove t ~cat:mcat ~dir ~dir_ia name in
      let ia = shadow_inode t ~cat:mcat ino in
      let links = Device.get_u16 t.device (ia + F.links_off) in
      if links <= 1 then free_inode t ~cat:mcat ino
      else put_u16 t ~cat:mcat (ia + F.links_off) (links - 1);
      touch t ~cat:mcat dir_ia)

let rmdir t ~dir name =
  with_mutation t ~cat:mcat (fun () ->
      check_ino t dir;
      let dir_ia = shadow_inode t ~cat:mcat dir in
      let ino = dir_remove t ~cat:mcat ~dir ~dir_ia name in
      free_inode t ~cat:mcat ino;
      put_u16 t ~cat:mcat (dir_ia + F.links_off)
        (Device.get_u16 t.device (dir_ia + F.links_off) - 1);
      touch t ~cat:mcat dir_ia)

let rename t ~src_dir ~src ~dst_dir ~dst =
  with_mutation t ~cat:mcat (fun () ->
      check_ino t src_dir;
      check_ino t dst_dir;
      let imap = t.imap_root in
      let ino = (dir_entry t ~dir:src_dir src).Media.Dirent.ino in
      let moving_dir = is_dir_at t ~imap ino in
      (match dir_find t ~dir:dst_dir dst with
      | None -> ()
      | Some { Media.Dirent.ino = old; _ } ->
        let dst_ia = shadow_inode t ~cat:mcat dst_dir in
        ignore (dir_remove t ~cat:mcat ~dir:dst_dir ~dir_ia:dst_ia dst);
        if is_dir_at t ~imap old then begin
          free_inode t ~cat:mcat old;
          put_u16 t ~cat:mcat (dst_ia + F.links_off)
            (Device.get_u16 t.device (dst_ia + F.links_off) - 1)
        end
        else begin
          let old_ia = shadow_inode t ~cat:mcat old in
          let links = Device.get_u16 t.device (old_ia + F.links_off) in
          if links <= 1 then free_inode t ~cat:mcat old
          else put_u16 t ~cat:mcat (old_ia + F.links_off) (links - 1)
        end);
      let src_ia = shadow_inode t ~cat:mcat src_dir in
      ignore (dir_remove t ~cat:mcat ~dir:src_dir ~dir_ia:src_ia src);
      let dst_ia = shadow_inode t ~cat:mcat dst_dir in
      dir_add t ~cat:mcat ~dir_ia:dst_ia dst ~ino;
      if moving_dir && src_dir <> dst_dir then begin
        put_u16 t ~cat:mcat (src_ia + F.links_off)
          (Device.get_u16 t.device (src_ia + F.links_off) - 1);
        put_u16 t ~cat:mcat (dst_ia + F.links_off)
          (Device.get_u16 t.device (dst_ia + F.links_off) + 1)
      end;
      touch t ~cat:mcat src_ia;
      touch t ~cat:mcat dst_ia)

let readdir t ~dir =
  with_read t (fun () ->
      Media.Dirent.list t.device ~ia:(live_inode t dir))

(* --- data path --- *)

let read t ~ino ~off ~len ~into ~into_off =
  with_read t (fun () ->
      let size = F.size t.device (live_inode t ino) in
      if off >= size || len = 0 then 0
      else begin
        let len = min len (size - off) in
        let pos = ref off in
        let done_ = ref 0 in
        while !done_ < len do
          let fblock = !pos / t.bs in
          let boff = !pos mod t.bs in
          let chunk = min (t.bs - boff) (len - !done_) in
          (match lookup_block_at t ~imap:t.imap_root ~ino ~fblock with
          | Some b ->
            read_or_eio t ~cat:Stats.Read_access
              ~addr:(baddr t b + boff)
              ~len:chunk ~into ~off:(into_off + !done_)
          | None ->
            Bytes.fill into (into_off + !done_) chunk '\000';
            Device.charge_memcpy t.device Stats.Read_access `Read chunk);
          pos := !pos + chunk;
          done_ := !done_ + chunk
        done;
        len
      end)

let write t ~ino ~off ~src ~src_off ~len ~sync:_ =
  with_mutation t ~cat:Stats.Write_access (fun () ->
      if len = 0 then 0
      else begin
        let cat = Stats.Write_access in
        let ia = shadow_inode t ~cat ino in
        let size = Int64.to_int (Device.get_u64 t.device (ia + F.size_off)) in
        (* Extending past EOF: scrub the stale tail of the current last
           block so the gap reads as zeros afterwards. *)
        if off > size && size mod t.bs <> 0 then begin
          let lastf = size / t.bs in
          match lookup_block_at t ~imap:t.imap_root ~ino ~fblock:lastf with
          | None -> ()
          | Some _ ->
            let b, _ = ensure_data_block t ~cat ~ia ~fblock:lastf ~full:false in
            let boff = size mod t.bs in
            put_bytes t ~cat
              ~addr:(baddr t b + boff)
              (Bytes.make (t.bs - boff) '\000')
        end;
        let pos = ref off in
        let done_ = ref 0 in
        let fresh_blocks = ref 0 in
        while !done_ < len do
          let fblock = !pos / t.bs in
          let boff = !pos mod t.bs in
          let chunk = min (t.bs - boff) (len - !done_) in
          let full = boff = 0 && chunk = t.bs in
          let b, fresh = ensure_data_block t ~cat ~ia ~fblock ~full in
          if fresh then incr fresh_blocks;
          if fresh && not full then begin
            (* Fresh block: zero the uncovered head and tail. *)
            if boff > 0 then
              put_bytes t ~cat ~addr:(baddr t b) (Bytes.make boff '\000');
            let tail = t.bs - (boff + chunk) in
            if tail > 0 then
              put_bytes t ~cat
                ~addr:(baddr t b + boff + chunk)
                (Bytes.make tail '\000')
          end;
          Device.write_nt t.device ~cat
            ~addr:(baddr t b + boff)
            ~src ~off:(src_off + !done_) ~len:chunk;
          pos := !pos + chunk;
          done_ := !done_ + chunk
        done;
        if off + len > size then
          put_u64 t ~cat (ia + F.size_off) (Int64.of_int (off + len));
        if !fresh_blocks > 0 then
          put_u64 t ~cat (ia + F.blocks_off)
            (Int64.add
               (Device.get_u64 t.device (ia + F.blocks_off))
               (Int64.of_int !fresh_blocks));
        put_u64 t ~cat (ia + F.mtime_off) (now t);
        len
      end)

let truncate t ~ino ~size =
  with_mutation t ~cat:mcat (fun () ->
      let cat = mcat in
      let ia = shadow_inode t ~cat ino in
      let old = Int64.to_int (Device.get_u64 t.device (ia + F.size_off)) in
      if size < old then begin
        let keep = (size + t.bs - 1) / t.bs in
        let had = (old + t.bs - 1) / t.bs in
        let dropped = ref 0 in
        for fblock = keep to had - 1 do
          if zap_data_block t ~cat ~ia ~fblock then incr dropped
        done;
        if !dropped > 0 then
          put_u64 t ~cat (ia + F.blocks_off)
            (Int64.sub
               (Device.get_u64 t.device (ia + F.blocks_off))
               (Int64.of_int !dropped));
        (* Zero the tail of the (kept) last partial block. *)
        if size mod t.bs <> 0 then begin
          match lookup_block_at t ~imap:t.imap_root ~ino ~fblock:(size / t.bs) with
          | None -> ()
          | Some _ ->
            let b, _ =
              ensure_data_block t ~cat ~ia ~fblock:(size / t.bs) ~full:false
            in
            let boff = size mod t.bs in
            put_bytes t ~cat
              ~addr:(baddr t b + boff)
              (Bytes.make (t.bs - boff) '\000')
        end
      end;
      if size <> old then put_u64 t ~cat (ia + F.size_off) (Int64.of_int size);
      touch t ~cat ia)

let fsync t ~ino =
  ignore ino;
  with_mutation t ~cat:ccat (fun () -> ())

let sync_all t = with_mutation t ~cat:ccat (fun () -> ())

let unmount t =
  (if t.mounted && not (read_only t) then
     try sync_all t with Errno.Fs_error _ -> ());
  t.mounted <- false

(* --- snapshots / clones / rollback / transactions --- *)

let no_txn t what =
  if t.txn_depth > 0 then
    Errno.raise_error EINVAL "%s inside an open transaction" what

(* Add [d] to every block of the tree pinned by [imap]. *)
let walk_delta t ~imap d =
  iter_tree_at t ~imap (fun ~block ~kind:_ -> delta t block d)

let snap_store t ~cat ~slot ~id ~imap ~seq =
  let tbl = shadow_snap_table t ~cat in
  let addr = baddr t tbl + (32 * slot) in
  put_u64i t ~cat addr id;
  put_u64i t ~cat (addr + 8) imap;
  put_u64 t ~cat (addr + 16) seq

let free_snap_slot t =
  let found = ref None in
  for i = snap_capacity t - 1 downto 0 do
    if get_u64i t (baddr t t.snap_table + (32 * i)) = 0 then found := Some i
  done;
  match !found with
  | Some i -> i
  | None -> Errno.raise_error ENOSPC "snapshot table is full"

let snapshot_of_imap t ~cat src_imap =
  (* Flush the open window first so the pinned root is a committed one. *)
  commit_locked t ~cat;
  let src_imap = if src_imap = 0 then t.imap_root else src_imap in
  let id = t.next_snap_id in
  let slot = free_snap_slot t in
  snap_store t ~cat ~slot ~id ~imap:src_imap
    ~seq:(Int64.succ t.committed.Root_swap.seq);
  walk_delta t ~imap:src_imap 1;
  t.next_snap_id <- id + 1;
  commit_locked t ~cat;
  id

let snapshot t =
  Rwlock.with_write t.lock (fun () ->
      check_writable t;
      no_txn t "snapshot";
      match snapshot_of_imap t ~cat:ccat 0 with
      | id -> id
      | exception e ->
        abort_window t;
        raise e)

let clone t ~snap_id =
  Rwlock.with_write t.lock (fun () ->
      check_writable t;
      no_txn t "clone";
      match
        match snap_find t snap_id with
        | None -> Errno.raise_error ENOENT "no snapshot %d" snap_id
        | Some s -> snapshot_of_imap t ~cat:ccat s.snap_imap
      with
      | id -> id
      | exception e ->
        abort_window t;
        raise e)

let snapshot_delete t ~snap_id =
  Rwlock.with_write t.lock (fun () ->
      check_writable t;
      no_txn t "snapshot_delete";
      match
        match (snap_find t snap_id, snap_slot_of t snap_id) with
        | Some s, Some slot ->
          commit_locked t ~cat:ccat;
          Obs.span_begin Obs.Snapshot_gc;
          (match
             snap_store t ~cat:ccat ~slot ~id:0 ~imap:0 ~seq:0L;
             walk_delta t ~imap:s.snap_imap (-1);
             commit_locked t ~cat:ccat
           with
          | () -> Obs.span_end Obs.Snapshot_gc
          | exception e ->
            Obs.span_end Obs.Snapshot_gc;
            raise e)
        | _ -> Errno.raise_error ENOENT "no snapshot %d" snap_id
      with
      | () -> ()
      | exception e ->
        abort_window t;
        raise e)

let rollback t ~snap_id =
  Rwlock.with_write t.lock (fun () ->
      check_writable t;
      no_txn t "rollback";
      match
        match snap_find t snap_id with
        | None -> Errno.raise_error ENOENT "no snapshot %d" snap_id
        | Some s ->
          (* Discard the open window, then retarget the working tree. *)
          abort_window t;
          Obs.span_begin Obs.Snapshot_gc;
          (match
             walk_delta t ~imap:t.imap_root (-1);
             t.imap_root <- s.snap_imap;
             walk_delta t ~imap:s.snap_imap 1;
             Allocator.reset t.ialloc;
             for ino = 1 to t.inode_count do
               if in_use_at t ~imap:t.imap_root ino then
                 Allocator.mark_allocated t.ialloc ino
             done;
             commit_locked t ~cat:ccat
           with
          | () -> Obs.span_end Obs.Snapshot_gc
          | exception e ->
            Obs.span_end Obs.Snapshot_gc;
            raise e)
      with
      | () -> ()
      | exception e ->
        abort_window t;
        raise e)

let txn_begin t =
  Rwlock.with_write t.lock (fun () ->
      check_writable t;
      t.txn_depth <- t.txn_depth + 1)

let txn_commit t =
  Rwlock.with_write t.lock (fun () ->
      if t.txn_depth = 0 then
        Errno.raise_error EINVAL "txn_commit without txn_begin";
      t.txn_depth <- t.txn_depth - 1;
      if t.txn_depth = 0 then (
        match commit_locked t ~cat:ccat with
        | () -> ()
        | exception e ->
          abort_window t;
          raise e))

let txn_abort t =
  Rwlock.with_write t.lock (fun () ->
      if t.txn_depth = 0 then
        Errno.raise_error EINVAL "txn_abort without txn_begin";
      abort_window t)

(* --- state digest (crashmc whole-image oracle) ---

   A canonical untimed fingerprint of the whole FS: the recursive
   namespace of the working tree (path, kind, size, content) plus every
   snapshot's id and tree fingerprint. Two devices whose digests match
   hold bit-equivalent committed states. Callers must be quiesced. *)

let digest_tree t ~imap =
  let buf = Buffer.create 4096 in
  let rec walk path ino =
    let ia = inode_addr_at t ~imap ino in
    (* A never-populated inode page reads as a free, empty inode. *)
    let field decode = match ia with Some ia -> decode t.device ia | None -> 0 in
    let kind = field F.kind in
    Buffer.add_string buf path;
    Buffer.add_char buf '\000';
    Buffer.add_string buf (string_of_int kind);
    Buffer.add_char buf '\000';
    if kind = F.kind_directory then begin
      let entries =
        List.sort (fun (a, _) (b, _) -> String.compare a b)
          (Media.Dirent.list t.device ~ia:(Option.get ia))
      in
      List.iter (fun (name, child) -> walk (path ^ "/" ^ name) child) entries
    end
    else begin
      let size = field F.size in
      Buffer.add_string buf (string_of_int size);
      Buffer.add_char buf '\000';
      let nblocks = (size + t.bs - 1) / t.bs in
      for fblock = 0 to nblocks - 1 do
        let len = min t.bs (size - (fblock * t.bs)) in
        match lookup_block_at t ~imap ~ino ~fblock with
        | Some b ->
          Buffer.add_bytes buf (Device.peek t.device ~addr:(baddr t b) ~len)
        | None -> Buffer.add_bytes buf (Bytes.make len '\000')
      done
    end
  in
  walk "" root_ino;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let state_digest t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (digest_tree t ~imap:t.imap_root);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Fmt.str "|%d:%s" s.snap_id (digest_tree t ~imap:s.snap_imap)))
    (List.sort (fun a b -> compare a.snap_id b.snap_id) (snap_list t));
  Buffer.contents buf

(* --- VFS backend --- *)

module Backend : Hinfs_vfs.Backend.S with type t = t = struct
  type nonrec t = t

  let fs_name _ = "cowfs"
  let device = device
  let sync_mount _ = false
  let root_ino _ = root_ino
  let lookup = lookup
  let create_file = create_file
  let mkdir = mkdir
  let unlink = unlink
  let rmdir = rmdir
  let rename = rename
  let readdir = readdir
  let stat t ~ino = with_read t (fun () -> stat_of t ino)
  let read = read
  let write = write
  let truncate = truncate
  let fsync = fsync

  let mmap t ~ino =
    fsync t ~ino;
    Obs.instant Obs.Ev_mmap_pin ~a:ino ~b:0

  let munmap _ ~ino = Obs.instant Obs.Ev_mmap_unpin ~a:ino ~b:0
  let msync t ~ino = fsync t ~ino
  let sync_all = sync_all
  let unmount = unmount
end

module Vfs_layer = Hinfs_vfs.Vfs.Make (Backend)

let handle = Vfs_layer.handle
