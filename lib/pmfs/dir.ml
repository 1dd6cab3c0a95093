(* Directory entries, stored in the directory inode's data blocks.

   The dirent format and the read-side walks are {!Media.Dirent}'s, read
   through the coherent view. This module is PMFS's write side: creation
   reuses the first free slot or appends a fresh block, and every mutation
   is journaled through the caller's transaction. *)

module Device = Hinfs_nvmm.Device
module Log = Hinfs_journal.Cacheline_log
module Stats = Hinfs_stats.Stats

let mcat = Stats.Other

let dir_ia ctx dir = Layout.Inode.addr ctx.Fs_ctx.geo dir

let find ctx ~dir name =
  Media.Dirent.find ctx.Fs_ctx.device ~ia:(dir_ia ctx dir) name

let lookup ctx ~dir name =
  Option.map (fun f -> f.Media.Dirent.ino) (find ctx ~dir name)

let list ctx ~dir = Media.Dirent.list ctx.Fs_ctx.device ~ia:(dir_ia ctx dir)

let dirent_addr ctx block slot =
  Fs_ctx.block_addr ctx block + (slot * Media.Dirent.size)

(* All dirent mutations journal into the directory's home-shard log; the
   caller's [txn] must have been begun on that same log. *)
let write_dirent ctx txn ~dir ~block ~slot ~name ~ino =
  let addr = dirent_addr ctx block slot in
  Log.log (Fs_ctx.log_for ctx ~ino:dir) txn ~addr ~len:Media.Dirent.size;
  Device.set_bytes ctx.Fs_ctx.device ~cat:mcat ~addr
    (Media.Dirent.encode ~name ~ino)

(* Insert an entry. Returns the NVMM blocks allocated for the directory by
   this call (a fresh dirent block plus any index nodes): they are only
   reachable once [txn] commits, so a caller that aborts the transaction
   must hand them back to the allocator. A failure *inside* [add] reclaims
   its own allocations before re-raising. *)
let add ctx txn ~dir name ~ino =
  Media.Dirent.check_name name;
  let device = ctx.Fs_ctx.device in
  let geo = ctx.Fs_ctx.geo in
  let allocated = ref [] in
  try
    let block, slot =
      match Media.Dirent.free_slot device ~ia:(dir_ia ctx dir) with
      | Some (_fblock, block, slot) -> (block, slot)
      | None ->
        (* Append a fresh dirent block: zero it persistently before it
           becomes reachable, then extend the directory size. *)
        let nblocks =
          Layout.Inode.size device geo dir / geo.Layout.block_size
        in
        let block, fresh, blocks =
          Block_tree.ensure ctx txn ~ino:dir ~fblock:nblocks
        in
        allocated := blocks;
        if fresh then
          Device.zero_nt device ~cat:mcat
            ~addr:(Fs_ctx.block_addr ctx block)
            ~len:geo.Layout.block_size;
        let inode_addr = Layout.Inode.addr geo dir in
        Log.log (Fs_ctx.log_for ctx ~ino:dir) txn ~addr:inode_addr ~len:40;
        Layout.Inode.set_size device ~cat:mcat geo dir
          ((nblocks + 1) * geo.Layout.block_size);
        Layout.Inode.set_blocks device ~cat:mcat geo dir
          (Layout.Inode.blocks device geo dir + if fresh then 1 else 0);
        (block, 0)
    in
    write_dirent ctx txn ~dir ~block ~slot ~name ~ino;
    !allocated
  with e ->
    List.iter (Fs_ctx.free_block ctx) !allocated;
    raise e

let remove ctx txn ~dir name =
  match find ctx ~dir name with
  | None -> Fmt.invalid_arg "Dir.remove: no entry %S in directory %d" name dir
  | Some { Media.Dirent.ino; block; slot; _ } ->
    let addr = dirent_addr ctx block slot in
    Log.log (Fs_ctx.log_for ctx ~ino:dir) txn ~addr ~len:4;
    Device.set_u32 ctx.Fs_ctx.device ~cat:mcat addr 0;
    ino
