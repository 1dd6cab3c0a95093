(* Shared mounted-filesystem context threaded through the PMFS layers.

   Hot state is sharded (Layout v3): each shard owns one journal
   sub-region and one range of the inode table and data region. A file's
   home shard is a pure function of its inode number; every transaction
   lives entirely in its home shard's journal, while frees route back to
   the owning range by block / inode number. Cross-shard operations
   commit through the epoch record. *)

module Allocator = Hinfs_nvmm.Allocator
module Log = Hinfs_journal.Cacheline_log

type shard = {
  log : Log.t;
  balloc : Allocator.t; (* this shard's data-block range *)
  ialloc : Allocator.t; (* this shard's inode range (1-based inos) *)
}

type t = {
  device : Hinfs_nvmm.Device.t;
  geo : Layout.geometry;
  shards : shard array;
  epoch : Hinfs_journal.Epoch.t;
  mutable rr_next : int; (* round-robin cursor for directory placement *)
}

let block_addr t block = block * t.geo.Layout.block_size

let stats t = Hinfs_nvmm.Device.stats t.device
let config t = Hinfs_nvmm.Device.config t.device

let shard_count t = Array.length t.shards
let shard t s = t.shards.(s)
let shard_of_ino t ino = Layout.shard_of_ino t.geo ino
let shard_of_block t block = Layout.shard_of_block t.geo block
let shard_for_ino t ino = t.shards.(shard_of_ino t ino)
let log_for t ~ino = (shard_for_ino t ino).log
let epoch t = t.epoch

let iter_shards t f = Array.iteri f t.shards

(* --- allocation: prefer the home range, fall back round the ring ---

   A shard allocates from its own range without contending; only when the
   range runs dry does it borrow from the next shard's. Borrowed blocks
   are still owned by their range (frees route by number), so fsck's
   per-range accounting stays exact. *)

let alloc_in t ~shard:s pick =
  let n = shard_count t in
  let rec go i =
    if i = n then None
    else
      match pick t.shards.((s + i) mod n) with
      | Some _ as r -> r
      | None -> go (i + 1)
  in
  go 0

let alloc_block t ~shard =
  alloc_in t ~shard (fun sh -> Allocator.alloc sh.balloc)

let alloc_ino t ~shard =
  alloc_in t ~shard (fun sh -> Allocator.alloc sh.ialloc)

(* Return a block or inode number to the range that owns it. Numbers a
   transaction allocated or released come back through here when it ends
   ({!Log.set_reclaim}). *)
let free t (r : Log.resource) n =
  match r with
  | Block -> Allocator.free t.shards.(shard_of_block t n).balloc n
  | Inode -> Allocator.free t.shards.(shard_of_ino t n).ialloc n

let block_is_allocated t block =
  let sh = t.shards.(shard_of_block t block) in
  Allocator.contains sh.balloc block && Allocator.is_allocated sh.balloc block

let mark_block_allocated t block =
  Allocator.mark_allocated t.shards.(shard_of_block t block).balloc block

let mark_ino_allocated t ino =
  Allocator.mark_allocated t.shards.(shard_of_ino t ino).ialloc ino

(* Directory placement: spread directories round-robin across shards so a
   namespace populates every shard's ranges; files are placed in their
   parent directory's shard (see Pmfs.create_entry), keeping create /
   unlink / rmdir single-shard. *)
let next_dir_shard t =
  let s = t.rr_next in
  t.rr_next <- (s + 1) mod shard_count t;
  s

let sum f t = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards

let free_data_blocks t = sum (fun sh -> Allocator.free_blocks sh.balloc) t
let free_inodes t = sum (fun sh -> Allocator.free_blocks sh.ialloc) t
