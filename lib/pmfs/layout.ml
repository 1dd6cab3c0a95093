(* On-NVMM layout of the PMFS-style persistent format.

   Block map:
     block 0                     superblock
     [1, 1+journal_blocks)       cacheline undo journal (split into
                                 [shards] equal per-shard regions)
     block 1+journal_blocks      epoch record (cross-shard commit point)
     [itable_start, +itable)     inode table (128 B inodes, 1-based)
     [data_start, data_end)      data + index blocks
     block total-1               superblock replica

   All metadata fields are little-endian. Inode 1 is the root directory.
   The superblock carries a CRC-32C over its fixed fields and is
   replicated in the device's last block, so a poisoned or corrupt primary
   is repaired from the replica instead of failing the mount.

   Sharding (v3): hot state is partitioned into [shards] shards. The
   journal region is cut into [shards] contiguous sub-regions, and the
   inode table and data region are range-partitioned so each shard
   allocates from its own ranges without contending. A file's home shard
   is a pure function of its inode number ({!shard_of_ino}); frees route
   back by range ({!shard_of_block}). *)

module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Stats = Hinfs_stats.Stats
module Crc32c = Hinfs_structures.Crc32c

let magic = 0x504D4653 (* "PMFS" *)
let version = 3

type geometry = {
  block_size : int;
  total_blocks : int;
  journal_start : int;
  journal_blocks : int;
  itable_start : int;
  itable_blocks : int;
  data_start : int;
  data_end : int; (* first block past the data region *)
  sb_replica : int; (* block holding the superblock replica *)
  inode_count : int;
  shards : int; (* hot-state shard count (journal / inode / data ranges) *)
}

let root_ino = 1

(* Superblock field offsets (bytes within block 0). *)
module Sb = struct
  let magic_off = 0
  let version_off = 4
  let total_blocks_off = 8
  let journal_start_off = 16
  let journal_blocks_off = 24
  let itable_start_off = 32
  let itable_blocks_off = 40
  let data_start_off = 48
  let shards_off = 56
  let clean_unmount_off = 58
  let crc_off = 60

  (* The CRC covers the fixed geometry fields only (shards included): the
     clean-unmount flag flips at runtime with a single-byte store and must
     not invalidate the checksum. *)
  let crc_len = clean_unmount_off
end

(* Derive a geometry from a device size and tuning knobs: 512 inodes per
   MB of device. The journal is rounded up to a multiple of [shards] so
   every shard's region has the same capacity; one block past the journal
   holds the epoch record. *)
let geometry_of_config ?(journal_blocks = 64) ?(shards = 1) config =
  if shards < 1 then invalid_arg "Layout: shards must be >= 1";
  let block_size = config.Config.block_size in
  let total_blocks = Config.blocks config in
  let mb = config.Config.nvmm_size / (1024 * 1024) in
  let inode_count = max 256 (512 * max 1 mb) in
  let itable_blocks =
    ((inode_count * Media.inode_size) + block_size - 1) / block_size
  in
  let inode_count = itable_blocks * block_size / Media.inode_size in
  if inode_count < shards then
    invalid_arg "Layout: fewer inodes than shards";
  let journal_blocks =
    (max journal_blocks shards + shards - 1) / shards * shards
  in
  let journal_start = 1 in
  let itable_start = journal_start + journal_blocks + 1 in
  let data_start = itable_start + itable_blocks in
  let sb_replica = total_blocks - 1 in
  let data_end = sb_replica in
  if data_start >= data_end then
    invalid_arg "Layout: device too small for metadata regions";
  if data_end - data_start < shards then
    invalid_arg "Layout: fewer data blocks than shards";
  {
    block_size;
    total_blocks;
    journal_start;
    journal_blocks;
    itable_start;
    itable_blocks;
    data_start;
    data_end;
    sb_replica;
    inode_count;
    shards;
  }

(* --- shard partitions --- *)

(* Block holding the epoch record (between the journal and the itable). *)
let epoch_block geometry = geometry.journal_start + geometry.journal_blocks

(* Per-shard journal sub-region, as (first_block, blocks). *)
let journal_region geometry s =
  let per = geometry.journal_blocks / geometry.shards in
  (geometry.journal_start + (s * per), per)

(* Per-shard inode range, as (first_ino, count); the last shard absorbs
   the remainder. *)
let inode_range geometry s =
  let per = geometry.inode_count / geometry.shards in
  let first = 1 + (s * per) in
  let count =
    if s = geometry.shards - 1 then geometry.inode_count - (s * per) else per
  in
  (first, count)

let shard_of_ino geometry ino =
  let per = geometry.inode_count / geometry.shards in
  min ((ino - 1) / per) (geometry.shards - 1)

(* Per-shard data-block range, as (first_block, count). *)
let data_range geometry s =
  let per = (geometry.data_end - geometry.data_start) / geometry.shards in
  let first = geometry.data_start + (s * per) in
  let count =
    if s = geometry.shards - 1 then geometry.data_end - first else per
  in
  (first, count)

let shard_of_block geometry block =
  let per = (geometry.data_end - geometry.data_start) / geometry.shards in
  min ((block - geometry.data_start) / per) (geometry.shards - 1)

(* --- media-fault triage ---

   The one answer to "what does this byte address hold": fault
   attribution, the mount-time inode-table sweep, scrub, fsck and repair
   all match on it. *)
type region =
  | Superblock (* the primary copy or its replica *)
  | Journal of int (* the journal sub-region of this shard *)
  | Epoch_record
  | Inode_slot of int (* the table slot of this inode *)
  | Data_block of int (* a block of the data region: index node, data or free *)

let region_of_addr geometry addr =
  let block = addr / geometry.block_size in
  if block = 0 || block = geometry.sb_replica then Superblock
  else if
    block >= geometry.journal_start
    && block < geometry.journal_start + geometry.journal_blocks
  then
    let per = geometry.journal_blocks / geometry.shards in
    Journal (min ((block - geometry.journal_start) / per) (geometry.shards - 1))
  else if block = epoch_block geometry then Epoch_record
  else if
    block >= geometry.itable_start
    && block < geometry.itable_start + geometry.itable_blocks
  then
    Inode_slot
      (((addr - (geometry.itable_start * geometry.block_size))
        / Media.inode_size)
      + 1)
  else if block >= geometry.data_start && block < geometry.data_end then
    Data_block block
  else Fmt.invalid_arg "Layout.region_of_addr: %#x is outside the device" addr

(* The shard whose fault domain owns [region]; [None] for the
   mount-scoped superblock and epoch record. *)
let shard_of_region geometry = function
  | Superblock | Epoch_record -> None
  | Journal s -> Some s
  | Inode_slot ino -> Some (shard_of_ino geometry ino)
  | Data_block block -> Some (shard_of_block geometry block)

(* Superblock image with CRC set (the clean flag is outside the CRC). *)
let superblock_image geometry ~clean =
  let b = Bytes.make geometry.block_size '\000' in
  Bytes.set_int32_le b Sb.magic_off (Int32.of_int magic);
  Bytes.set_int32_le b Sb.version_off (Int32.of_int version);
  Bytes.set_int64_le b Sb.total_blocks_off (Int64.of_int geometry.total_blocks);
  Bytes.set_int64_le b Sb.journal_start_off (Int64.of_int geometry.journal_start);
  Bytes.set_int64_le b Sb.journal_blocks_off (Int64.of_int geometry.journal_blocks);
  Bytes.set_int64_le b Sb.itable_start_off (Int64.of_int geometry.itable_start);
  Bytes.set_int64_le b Sb.itable_blocks_off (Int64.of_int geometry.itable_blocks);
  Bytes.set_int64_le b Sb.data_start_off (Int64.of_int geometry.data_start);
  Bytes.set_uint16_le b Sb.shards_off geometry.shards;
  Bytes.set_uint8 b Sb.clean_unmount_off (if clean then 1 else 0);
  Bytes.set_int32_le b Sb.crc_off
    (Int32.of_int (Crc32c.digest b ~off:0 ~len:Sb.crc_len));
  b

(* Write the superblock and its replica (mkfs/mount/unmount; untimed). The
   reliable store path heals any poison on the copies' lines; the stores
   are recorder-visible and fenced, so crash enumeration covers a crash
   between the two copy updates. *)
let write_superblock device geometry ~clean =
  let b = superblock_image geometry ~clean in
  Device.poke_flushed device ~addr:0 ~src:b ~off:0 ~len:geometry.block_size;
  Device.poke_flushed device
    ~addr:(geometry.sb_replica * geometry.block_size)
    ~src:b ~off:0 ~len:geometry.block_size;
  Device.fence_untimed device

(* Why one superblock copy cannot be trusted: [`Poisoned] and [`Bad_crc]
   mean damage to a formatted device, [`No_magic] means there is (probably)
   no file system here at all — mount reports the two differently (EIO vs
   EINVAL). *)
let superblock_status device ~addr =
  let config = Device.config device in
  let block_size = config.Config.block_size in
  if Device.verify_range device ~addr ~len:block_size <> [] then `Poisoned
  else begin
    let b = Device.peek_persistent device ~addr ~len:block_size in
    let m = Int32.to_int (Bytes.get_int32_le b Sb.magic_off) in
    let stored =
      Int32.to_int (Bytes.get_int32_le b Sb.crc_off) land 0xFFFFFFFF
    in
    if m <> magic then `No_magic
    else if stored <> Crc32c.digest b ~off:0 ~len:Sb.crc_len then begin
      Hinfs_stats.Stats.add_crc_mismatch (Device.stats device);
      `Bad_crc
    end
    else `Ok b
  end

(* One superblock copy is trustworthy if its lines carry no poison, the
   magic matches, and the CRC over the fixed fields checks out. *)
let superblock_ok device ~addr =
  match superblock_status device ~addr with `Ok b -> Some b | _ -> None

let geometry_of_superblock ~block_size b =
  let geti64 off = Int64.to_int (Bytes.get_int64_le b off) in
  let itable_blocks = geti64 Sb.itable_blocks_off in
  let total_blocks = geti64 Sb.total_blocks_off in
  {
    block_size;
    total_blocks;
    journal_start = geti64 Sb.journal_start_off;
    journal_blocks = geti64 Sb.journal_blocks_off;
    itable_start = geti64 Sb.itable_start_off;
    itable_blocks;
    data_start = geti64 Sb.data_start_off;
    data_end = total_blocks - 1;
    sb_replica = total_blocks - 1;
    inode_count = itable_blocks * block_size / Media.inode_size;
    shards = max 1 (Bytes.get_uint16_le b Sb.shards_off);
  }

(* Read the superblock, falling back to the replica — and repairing the
   bad copy from the good one — when the primary is poisoned or fails its
   checksum. Repairs use the recorder-visible reliable store, so crash
   enumeration covers a crash in the middle of replica repair. When both
   copies are unusable the result distinguishes a damaged formatted device
   ([`Corrupt] — mount must fail with EIO, never fabricate a mount) from a
   device that was never formatted ([`Absent]). *)
let read_superblock device =
  let config = Device.config device in
  let block_size = config.Config.block_size in
  let replica_addr = (Config.blocks config - 1) * block_size in
  let parse b =
    ( geometry_of_superblock ~block_size b,
      Bytes.get_uint8 b Sb.clean_unmount_off = 1 )
  in
  match superblock_status device ~addr:0 with
  | `Ok b ->
    (if superblock_ok device ~addr:replica_addr = None then begin
       (* Replica lost: rewrite it from the primary. *)
       Device.poke_flushed device ~addr:replica_addr ~src:b ~off:0
         ~len:block_size;
       Device.fence_untimed device;
       Hinfs_stats.Stats.add_scrub_repair (Device.stats device)
     end);
    `Ok (parse b)
  | primary -> (
    match superblock_status device ~addr:replica_addr with
    | `Ok b ->
      (* Primary lost: repair it from the replica (heals poison). *)
      Device.poke_flushed device ~addr:0 ~src:b ~off:0 ~len:block_size;
      Device.fence_untimed device;
      Hinfs_stats.Stats.add_scrub_repair (Device.stats device);
      `Ok (parse b)
    | replica -> (
      match (primary, replica) with
      | `No_magic, `No_magic -> `Absent
      | _ -> `Corrupt))

let set_clean_unmount device ~cat ~clean =
  Device.set_u8 device ~cat Sb.clean_unmount_off (if clean then 1 else 0);
  Device.clflush device ~cat ~addr:Sb.clean_unmount_off ~len:1;
  Device.mfence device ~cat

(* --- inodes --- *)

module Inode = struct
  module M = Media.Inode

  (* PMFS's step from inode number to inode address: the fixed table. *)
  let addr geometry ino =
    if ino < 1 || ino > geometry.inode_count then
      Fmt.invalid_arg "Inode.addr: bad ino %d" ino;
    (geometry.itable_start * geometry.block_size) + ((ino - 1) * Media.inode_size)

  let in_use device geometry ino = M.in_use device (addr geometry ino)
  let kind device geometry ino = M.kind device (addr geometry ino)
  let links device geometry ino = M.links device (addr geometry ino)
  let height device geometry ino = M.height device (addr geometry ino)
  let size device geometry ino = M.size device (addr geometry ino)
  let tree_root device geometry ino = M.tree_root device (addr geometry ino)
  let mtime device geometry ino = M.mtime device (addr geometry ino)
  let blocks device geometry ino = M.blocks device (addr geometry ino)

  (* Setters: plain cached stores; callers wrap them in journal
     transactions and the journal's commit flushes them. *)
  let set_in_use device ~cat geometry ino v =
    Device.set_u8 device ~cat (addr geometry ino + M.in_use_off) (if v then 1 else 0)

  let set_kind device ~cat geometry ino v =
    Device.set_u8 device ~cat (addr geometry ino + M.kind_off) v

  let set_links device ~cat geometry ino v =
    Device.set_u16 device ~cat (addr geometry ino + M.links_off) v

  let set_height device ~cat geometry ino v =
    Device.set_u32 device ~cat (addr geometry ino + M.height_off) v

  let set_size device ~cat geometry ino v =
    Device.set_u64 device ~cat (addr geometry ino + M.size_off) (Int64.of_int v)

  let set_tree_root device ~cat geometry ino v =
    Device.set_u64 device ~cat (addr geometry ino + M.tree_root_off) (Int64.of_int v)

  let set_mtime device ~cat geometry ino v =
    Device.set_u64 device ~cat (addr geometry ino + M.mtime_off) v

  let set_blocks device ~cat geometry ino v =
    Device.set_u64 device ~cat (addr geometry ino + M.blocks_off) (Int64.of_int v)
end
