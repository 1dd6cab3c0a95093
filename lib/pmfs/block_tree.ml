(* PMFS's per-file block index: a radix tree of NVMM blocks.

   PMFS calls it a B-tree; structurally each 4 KB index node holds 512
   8-byte block pointers and the tree is keyed by the logical file block
   number, so it is a radix tree with fanout 512. The format and the
   read-side walks are {!Media.Tree}'s; this module is PMFS's journaled
   write side.

   Crash safety: pointer and inode updates are journaled through the
   cacheline undo log; freshly allocated index nodes are zeroed with
   non-temporal stores *before* the (journaled) parent pointer is committed,
   so an interrupted grow either rolls back completely or lands on a fully
   initialised node. *)

module Device = Hinfs_nvmm.Device
module Allocator = Hinfs_nvmm.Allocator
module Log = Hinfs_journal.Cacheline_log
module Stats = Hinfs_stats.Stats
module Errno = Hinfs_vfs.Errno

let mcat = Stats.Other (* index maintenance cost category *)

(* Journal the old pointer (into the file's home-shard log), then update
   it in place. *)
let write_ptr device log txn node_block slot value =
  let addr = Media.Tree.ptr_addr device node_block slot in
  Log.log log txn ~addr ~len:8;
  Device.set_u64 device ~cat:mcat addr (Int64.of_int value)

let alloc_block ctx ~shard =
  match Fs_ctx.alloc_block ctx ~shard with
  | Some b -> b
  | None -> Errno.raise_error ENOSPC "NVMM device is full"

(* Allocate and zero a fresh index node; the zeros are persistent before we
   return (non-temporal stores). *)
let alloc_index_node ctx ~shard =
  let block = alloc_block ctx ~shard in
  Device.zero_nt ctx.Fs_ctx.device ~cat:mcat
    ~addr:(Fs_ctx.block_addr ctx block)
    ~len:ctx.Fs_ctx.geo.Layout.block_size;
  block

(* --- read side: the walks live in the codec --- *)

let lookup ctx ~ino ~fblock =
  let ia = Layout.Inode.addr ctx.Fs_ctx.geo ino in
  Media.Tree.lookup ctx.Fs_ctx.device ~ia fblock

(* Visit every allocated data block as (fblock, block). *)
let iter_blocks ctx ~ino f =
  let ia = Layout.Inode.addr ctx.Fs_ctx.geo ino in
  Media.Tree.iter ctx.Fs_ctx.device ~ia ~data:f ()

(* Visit every index node (for allocator rebuild). *)
let iter_index_nodes ctx ~ino f =
  let ia = Layout.Inode.addr ctx.Fs_ctx.geo ino in
  Media.Tree.iter ctx.Fs_ctx.device ~ia ~index:f ()

(* --- growth and insertion --- *)

(* Raise a non-empty tree's height until [fblock] is addressable: the old
   root becomes slot 0 of each fresh root node. Inode height/root updates go
   through [txn]; the fresh node's slot-0 store does not (the node is
   unreachable until the transaction commits). Every allocated block is
   pushed onto [built] and every journaled mutation pushes an [undo]
   thunk restoring the old value (see [ensure]). *)
let grow ctx log txn ~ino ~fblock ~built ~undo =
  let device = ctx.Fs_ctx.device in
  let geo = ctx.Fs_ctx.geo in
  let shard = Fs_ctx.shard_of_ino ctx ino in
  let inode_addr = Layout.Inode.addr geo ino in
  while
    fblock >= Media.Tree.capacity device (Layout.Inode.height device geo ino)
  do
    let height = Layout.Inode.height device geo ino in
    let root = Layout.Inode.tree_root device geo ino in
    let node = alloc_index_node ctx ~shard in
    built := node :: !built;
    let slot0 = Media.Tree.ptr_addr device node 0 in
    Device.set_u64 device ~cat:mcat slot0 (Int64.of_int root);
    Device.clflush device ~cat:mcat ~addr:slot0 ~len:8;
    Log.log log txn ~addr:inode_addr ~len:24;
    Layout.Inode.set_height device ~cat:mcat geo ino (height + 1);
    Layout.Inode.set_tree_root device ~cat:mcat geo ino node;
    undo :=
      (fun () ->
        Layout.Inode.set_height device ~cat:mcat geo ino height;
        Layout.Inode.set_tree_root device ~cat:mcat geo ino root)
      :: !undo
  done

(* Descend from an index node to the data block for [fblock], allocating
   missing index nodes and the data block as needed. *)
let rec descend_ensure ctx log ~shard txn ~fblock ~built ~undo node level =
  let device = ctx.Fs_ctx.device in
  let slot = Media.Tree.slot device ~level fblock in
  let ptr = Media.Tree.read_ptr device node slot in
  if level = 1 then
    if ptr <> 0 then (ptr, false)
    else begin
      let data = alloc_block ctx ~shard in
      built := data :: !built;
      write_ptr device log txn node slot data;
      undo :=
        (fun () ->
          Device.set_u64 device ~cat:mcat
            (Media.Tree.ptr_addr device node slot)
            0L)
        :: !undo;
      (data, true)
    end
  else if ptr <> 0 then
    descend_ensure ctx log ~shard txn ~fblock ~built ~undo ptr (level - 1)
  else begin
    let child = alloc_index_node ctx ~shard in
    built := child :: !built;
    write_ptr device log txn node slot child;
    undo :=
      (fun () ->
        Device.set_u64 device ~cat:mcat
          (Media.Tree.ptr_addr device node slot)
          0L)
      :: !undo;
    descend_ensure ctx log ~shard txn ~fblock ~built ~undo child (level - 1)
  end

(* Find the data block for [fblock], allocating the tree path and the data
   block as needed. Returns [(block, freshly_allocated)]; every NVMM block
   (index nodes + data) the call allocated is owned by [txn] from its
   return on, so an abort reclaims it. *)
let ensure ctx txn ~ino ~fblock =
  if fblock < 0 then invalid_arg "Block_tree.ensure: negative file block";
  let device = ctx.Fs_ctx.device in
  let geo = ctx.Fs_ctx.geo in
  let log = Fs_ctx.log_for ctx ~ino in
  let shard = Fs_ctx.shard_of_ino ctx ino in
  let inode_addr = Layout.Inode.addr geo ino in
  let root = Layout.Inode.tree_root device geo ino in
  let built = ref [] in
  let undo = ref [] in
  (* Failure atomicity: a mid-path allocation failure (ENOSPC, injected
     fault) raises after part of the path was built. A failed ensure must be
     net-zero: the undo thunks restore every pointer and inode field this
     call changed (the addresses are already journaled under [txn], so a
     later abort re-restores the same values — idempotent), and the
     partially allocated blocks are reclaimed here, never handed to [txn].
     This matters for HiNFS's long-lived pending transactions, which must
     stay valid for *either* commit or abort after a failed segment. *)
  let result =
    try
    if root = 0 then begin
      (* Empty file: build a fresh path of the needed height. *)
      let h = Media.Tree.needed_height device fblock in
      if h = 0 then begin
        let data = alloc_block ctx ~shard in
        built := data :: !built;
        Log.log log txn ~addr:inode_addr ~len:24;
        Layout.Inode.set_tree_root device ~cat:mcat geo ino data;
        (data, true)
      end
      else begin
        let old_height = Layout.Inode.height device geo ino in
        let node = alloc_index_node ctx ~shard in
        built := node :: !built;
        Log.log log txn ~addr:inode_addr ~len:24;
        Layout.Inode.set_height device ~cat:mcat geo ino h;
        Layout.Inode.set_tree_root device ~cat:mcat geo ino node;
        undo :=
          (fun () ->
            Layout.Inode.set_height device ~cat:mcat geo ino old_height;
            Layout.Inode.set_tree_root device ~cat:mcat geo ino 0)
          :: !undo;
        descend_ensure ctx log ~shard txn ~fblock ~built ~undo node h
      end
    end
    else begin
      grow ctx log txn ~ino ~fblock ~built ~undo;
      let height = Layout.Inode.height device geo ino in
      let root = Layout.Inode.tree_root device geo ino in
      if height = 0 then begin
        assert (fblock = 0);
        (root, false)
      end
      else descend_ensure ctx log ~shard txn ~fblock ~built ~undo root height
    end
    with e ->
      List.iter (fun f -> f ()) !undo;
      List.iter (Fs_ctx.free ctx Block) !built;
      raise e
  in
  List.iter (Log.allocated txn Block) !built;
  result

(* --- freeing --- *)

(* Detach all tree blocks (index + data) from the inode: root/height/blocks
   are reset through [txn], which releases the blocks — they go
   back to the allocator once it commits. The freed blocks need no on-NVMM
   scrubbing: nothing reachable points at them once the transaction commits
   (the allocator is rebuilt from live trees at mount).

   [log] is the journal [txn] was begun on — the parent directory's when
   called from unlink / rmdir / rename, which need not be the dead inode's
   home shard. *)
let free_all ctx log txn ~ino =
  let device = ctx.Fs_ctx.device in
  let geo = ctx.Fs_ctx.geo in
  let inode_addr = Layout.Inode.addr geo ino in
  iter_blocks ctx ~ino (fun _fblock block -> Log.released txn Block block);
  iter_index_nodes ctx ~ino (Log.released txn Block);
  Log.log log txn ~addr:inode_addr ~len:40;
  Layout.Inode.set_height device ~cat:mcat geo ino 0;
  Layout.Inode.set_tree_root device ~cat:mcat geo ino 0;
  Layout.Inode.set_blocks device ~cat:mcat geo ino 0

(* Detach data blocks with fblock >= keep_blocks (truncate). Index nodes
   that become empty are left in place (they are reclaimed when the file is
   deleted); pointers to the cut-off data blocks are zeroed through the txn,
   which releases the blocks as [free_all] does. Returns how many it
   released. *)
let free_from ctx txn ~ino ~keep_blocks =
  let device = ctx.Fs_ctx.device in
  let geo = ctx.Fs_ctx.geo in
  let log = Fs_ctx.log_for ctx ~ino in
  let height = Layout.Inode.height device geo ino in
  let root = Layout.Inode.tree_root device geo ino in
  let released = ref 0 in
  let release block =
    Log.released txn Block block;
    incr released
  in
  if root <> 0 then
    if height = 0 then begin
      if keep_blocks <= 0 then begin
        release root;
        Log.log log txn ~addr:(Layout.Inode.addr geo ino) ~len:24;
        Layout.Inode.set_tree_root device ~cat:mcat geo ino 0
      end
    end
    else begin
      let p = Media.Tree.fanout device in
      let rec walk node level base =
        let span = Media.Tree.capacity device (level - 1) in
        for slot = 0 to p - 1 do
          let fblock_base = base + (slot * span) in
          if fblock_base + span > keep_blocks then begin
            let ptr = Media.Tree.read_ptr device node slot in
            if ptr <> 0 then
              if level = 1 then begin
                release ptr;
                write_ptr device log txn node slot 0
              end
              else walk ptr (level - 1) fblock_base
          end
        done
      in
      walk root height 0
    end;
  !released
