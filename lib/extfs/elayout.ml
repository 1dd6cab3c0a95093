(* On-disk layout of the EXT2/EXT4-like block file system.

   Block map:
     0                         superblock
     [1, 1+journal)            jbd-style journal (used in EXT4 modes)
     [bbm_start, +bbm)         data-block bitmap
     [ibm_start, +ibm)         inode bitmap
     [itable_start, +itable)   inode table (128 B inodes, 1-based)
     [data_start, total)       data + indirect blocks

   The 128-byte inode:
     0      in_use        1   kind          2..3  links
     4..11  size          12..19 mtime      20..23 blocks
     24..71 12 direct block pointers (u32)
     72..75 single-indirect pointer
     76..79 double-indirect pointer *)

let magic = 0x45585446 (* "EXTF" *)
let inode_size = 128
let direct_ptrs = 12

type geometry = {
  block_size : int;
  total_blocks : int;
  journal_start : int;
  journal_blocks : int;
  bbm_start : int;
  bbm_blocks : int;
  ibm_start : int;
  ibm_blocks : int;
  itable_start : int;
  itable_blocks : int;
  data_start : int;
  inode_count : int;
}

let root_ino = 1

let ptrs_per_block geometry = geometry.block_size / 4

(* Addressable file blocks: direct + indirect + double indirect. *)
let max_fblocks geometry =
  let p = ptrs_per_block geometry in
  direct_ptrs + p + (p * p)

(* 512 inodes per MB of file system. *)
let geometry_of ?(journal_blocks = 64) ~block_size ~total_blocks () =
  let bits_per_block = block_size * 8 in
  let mb = total_blocks * block_size / (1024 * 1024) in
  let inode_count = max 256 (512 * max 1 mb) in
  let itable_blocks = ((inode_count * inode_size) + block_size - 1) / block_size in
  let inode_count = itable_blocks * block_size / inode_size in
  let ibm_blocks = (inode_count + bits_per_block - 1) / bits_per_block in
  (* Upper bound on data blocks to size the bitmap. *)
  let journal_start = 1 in
  let bbm_start = journal_start + journal_blocks in
  (* Solve for bbm_blocks iteratively (small). *)
  let rec solve bbm_blocks =
    let ibm_start = bbm_start + bbm_blocks in
    let itable_start = ibm_start + ibm_blocks in
    let data_start = itable_start + itable_blocks in
    let data_blocks = total_blocks - data_start in
    if data_blocks <= 0 then
      invalid_arg "Elayout: device too small for metadata regions";
    let needed = (data_blocks + bits_per_block - 1) / bits_per_block in
    if needed > bbm_blocks then solve needed
    else
      {
        block_size;
        total_blocks;
        journal_start;
        journal_blocks;
        bbm_start;
        bbm_blocks;
        ibm_start;
        ibm_blocks;
        itable_start;
        itable_blocks;
        data_start;
        inode_count;
      }
  in
  solve 1

(* --- superblock encode/decode --- *)

let write_superblock_bytes geometry b =
  Bytes.fill b 0 (Bytes.length b) '\000';
  let seti32 off v = Bytes.set_int32_le b off (Int32.of_int v) in
  seti32 0 magic;
  seti32 4 geometry.total_blocks;
  seti32 8 geometry.journal_start;
  seti32 12 geometry.journal_blocks;
  seti32 16 geometry.bbm_start;
  seti32 20 geometry.bbm_blocks;
  seti32 24 geometry.ibm_start;
  seti32 28 geometry.ibm_blocks;
  seti32 32 geometry.itable_start;
  seti32 36 geometry.itable_blocks;
  seti32 40 geometry.data_start;
  seti32 44 geometry.inode_count

let read_superblock_bytes ~block_size b =
  let geti32 off = Int32.to_int (Bytes.get_int32_le b off) in
  if geti32 0 <> magic then None
  else
    Some
      {
        block_size;
        total_blocks = geti32 4;
        journal_start = geti32 8;
        journal_blocks = geti32 12;
        bbm_start = geti32 16;
        bbm_blocks = geti32 20;
        ibm_start = geti32 24;
        ibm_blocks = geti32 28;
        itable_start = geti32 32;
        itable_blocks = geti32 36;
        data_start = geti32 40;
        inode_count = geti32 44;
      }

(* --- inode record accessors (on a raw inode-table block) --- *)

module Irec = struct
  let kind_free = 0
  let kind_regular = 1
  let kind_directory = 2

  (* Byte offset of inode [ino] within its table block. *)
  let block_of geometry ino =
    if ino < 1 || ino > geometry.inode_count then
      Fmt.invalid_arg "Irec: bad ino %d" ino;
    geometry.itable_start + ((ino - 1) / (geometry.block_size / inode_size))

  let offset_of geometry ino =
    (ino - 1) mod (geometry.block_size / inode_size) * inode_size

  let in_use b ~base = Bytes.get_uint8 b (base + 0) = 1
  let set_in_use b ~base v = Bytes.set_uint8 b (base + 0) (if v then 1 else 0)
  let kind b ~base = Bytes.get_uint8 b (base + 1)
  let set_kind b ~base v = Bytes.set_uint8 b (base + 1) v
  let links b ~base = Bytes.get_uint16_le b (base + 2)
  let set_links b ~base v = Bytes.set_uint16_le b (base + 2) v
  let size b ~base = Int64.to_int (Bytes.get_int64_le b (base + 4))
  let set_size b ~base v = Bytes.set_int64_le b (base + 4) (Int64.of_int v)
  let mtime b ~base = Bytes.get_int64_le b (base + 12)
  let set_mtime b ~base v = Bytes.set_int64_le b (base + 12) v
  let blocks b ~base = Int32.to_int (Bytes.get_int32_le b (base + 20))
  let set_blocks b ~base v = Bytes.set_int32_le b (base + 20) (Int32.of_int v)

  let direct b ~base i =
    Int32.to_int (Bytes.get_int32_le b (base + 24 + (4 * i)))

  let set_direct b ~base i v =
    Bytes.set_int32_le b (base + 24 + (4 * i)) (Int32.of_int v)

  let indirect b ~base = Int32.to_int (Bytes.get_int32_le b (base + 72))
  let set_indirect b ~base v = Bytes.set_int32_le b (base + 72) (Int32.of_int v)
  let dindirect b ~base = Int32.to_int (Bytes.get_int32_le b (base + 76))
  let set_dindirect b ~base v = Bytes.set_int32_le b (base + 76) (Int32.of_int v)

  let clear b ~base = Bytes.fill b base inode_size '\000'
end
