(* The PMFS on-media codec: the one definition of the persistent inode,
   block-tree and dirent formats (paper §4: HiNFS keeps PMFS's layout).

   PMFS (and HiNFS above it), the copy-on-write substrate and fsck all
   decode and encode the format through this module. What stays with each
   substrate is the step from an inode number to an inode address (PMFS's
   fixed inode table, {!Layout.Inode.addr}; cowfs's inode-map pages) and
   the commit mechanics of its stores (undo-journaled in-place stores vs.
   non-temporal stores into shadow pages): the write paths share only the
   encoders.

   Every reader here is an untimed [Device.get_*] / [peek], so decoding
   never moves the virtual clock. All fields are little-endian.

   Inode (128 bytes):
     0       in use (u8: 1 = in use)
     1       kind (u8: {!Inode.kind_free} / [kind_regular] / [kind_directory])
     2..3    link count (u16)
     4..7    block-tree height (u32)
     8..15   size in bytes (u64)
     16..23  block-tree root (u64 block number)
     24..31  mtime (u64 ns)
     32..39  reachable data blocks (u64)

   Block tree: a radix tree of 8-byte block pointers with fanout
   block_size / 8, keyed by file block number. Height 0 with a non-zero
   root means the root pointer addresses the single data block of file
   block 0; height h >= 1 addresses fanout^h file blocks. A zero pointer is
   a hole.

   Dirent (64 bytes, one cacheline, so a dirent update is exactly one
   undo-log entry pair), packed into the directory's data blocks:
     0..3    inode number (0 = free slot)
     4..5    name length (1 .. {!Dirent.max_name_len})
     6..60   name bytes *)

module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Errno = Hinfs_vfs.Errno
module Types = Hinfs_vfs.Types

let inode_size = 128

let block_size device = (Device.config device).Config.block_size

module Inode = struct
  let in_use_off = 0
  let kind_off = 1
  let links_off = 2
  let height_off = 4
  let size_off = 8
  let tree_root_off = 16
  let mtime_off = 24
  let blocks_off = 32

  let kind_free = 0
  let kind_regular = 1
  let kind_directory = 2

  (* Field decoders, from the inode's byte address [ia]. *)
  let in_use device ia = Device.get_u8 device (ia + in_use_off) = 1
  let kind device ia = Device.get_u8 device (ia + kind_off)
  let links device ia = Device.get_u16 device (ia + links_off)
  let height device ia = Device.get_u32 device (ia + height_off)
  let size device ia = Int64.to_int (Device.get_u64 device (ia + size_off))
  let tree_root device ia =
    Int64.to_int (Device.get_u64 device (ia + tree_root_off))
  let mtime device ia = Device.get_u64 device (ia + mtime_off)
  let blocks device ia = Int64.to_int (Device.get_u64 device (ia + blocks_off))

  let stat device ~ino ia =
    {
      Types.ino;
      kind =
        (if kind device ia = kind_directory then Types.Directory
         else Types.Regular);
      size = size device ia;
      nlink = links device ia;
      blocks = blocks device ia;
      mtime_ns = mtime device ia;
    }

  (* A fresh in-use inode with an empty tree (mkfs and cowfs inode init). *)
  let encode ~kind ~links ~mtime =
    let raw = Bytes.make inode_size '\000' in
    Bytes.set_uint8 raw in_use_off 1;
    Bytes.set_uint8 raw kind_off kind;
    Bytes.set_uint16_le raw links_off links;
    Bytes.set_int64_le raw mtime_off mtime;
    raw
end

module Tree = struct
  let fanout device = block_size device / 8

  (* Number of file blocks addressable at [height]. *)
  let capacity device height =
    let p = fanout device in
    let rec pow acc h = if h = 0 then acc else pow (acc * p) (h - 1) in
    pow 1 height

  (* Smallest height whose capacity covers [fblock]. *)
  let needed_height device fblock =
    let rec search h =
      if fblock < capacity device h then h else search (h + 1)
    in
    search 0

  (* Slot index at [level] (1 = leaf pointer level) for a file block. *)
  let slot device ~level fblock =
    fblock / capacity device (level - 1) mod fanout device

  let ptr_addr device node slot = (node * block_size device) + (slot * 8)

  let read_ptr device node slot =
    Int64.to_int (Device.get_u64 device (ptr_addr device node slot))

  (* Data block of [fblock] in the tree of the inode at [ia], if any. *)
  let lookup device ~ia fblock =
    if fblock < 0 then invalid_arg "Media.Tree.lookup: negative file block";
    let root = Inode.tree_root device ia in
    let height = Inode.height device ia in
    if root = 0 || fblock >= capacity device height then None
    else if height = 0 then Some root
    else begin
      let rec walk node level =
        let ptr = read_ptr device node (slot device ~level fblock) in
        if ptr = 0 then None
        else if level = 1 then Some ptr
        else walk ptr (level - 1)
      in
      walk root height
    end

  (* Pre-order walk of the tree of the inode at [ia]: [index] sees every
     index node before its children, [data] every data block as
     (fblock, block). Without [data] the leaf pointer level is not read. *)
  let iter device ~ia ?data ?(index = ignore) () =
    let on_data = Option.value data ~default:(fun _ _ -> ()) in
    let root = Inode.tree_root device ia in
    let height = Inode.height device ia in
    if root <> 0 then
      if height = 0 then on_data 0 root
      else begin
        let p = fanout device in
        let rec walk node level base =
          index node;
          if level > 1 || Option.is_some data then begin
            let span = capacity device (level - 1) in
            for slot = 0 to p - 1 do
              let ptr = read_ptr device node slot in
              if ptr <> 0 then
                if level = 1 then on_data (base + slot) ptr
                else walk ptr (level - 1) (base + (slot * span))
            done
          end
        in
        walk root height 0
      end
end

module Dirent = struct
  let size = 64
  let max_name_len = 55

  let check_name name =
    let len = String.length name in
    if len = 0 || len > max_name_len then
      Errno.raise_error EINVAL "directory entry name %S too long (max %d)"
        name max_name_len

  let encode ~name ~ino =
    let raw = Bytes.make size '\000' in
    Bytes.set_int32_le raw 0 (Int32.of_int ino);
    Bytes.set_uint16_le raw 4 (String.length name);
    Bytes.blit_string name 0 raw 6 (String.length name);
    raw

  type entry =
    | Free
    | Live of string * int (* name, inode number *)
    | Bad_name_len of int (* in-use slot whose name length is out of range *)

  (* The fields of the slot at [off] of [raw], read in place. A name
     length outside [1, max_name_len] is reported, never trusted. *)
  let ino_at raw off = Int32.to_int (Bytes.get_int32_le raw off)
  let name_len_at raw off = Bytes.get_uint16_le raw (off + 4)
  let valid_len len = len > 0 && len <= max_name_len

  let decode raw off =
    let ino = ino_at raw off in
    if ino = 0 then Free
    else begin
      let len = name_len_at raw off in
      if valid_len len then Live (Bytes.sub_string raw (off + 6) len, ino)
      else Bad_name_len len
    end

  (* Visit every slot of the directory whose inode is at [ia], in file
     block then slot order, until [f] returns false. [f] sees the slot in
     place, [raw] from [off] (the coherent view unless [persistent]), and
     must not keep [raw]. *)
  let walk ?(persistent = false) device ~ia f =
    let bs = block_size device in
    let nblocks = Inode.size device ia / bs in
    let rec block_loop fblock =
      if fblock < nblocks then
        match Tree.lookup device ~ia fblock with
        | None -> block_loop (fblock + 1)
        | Some block ->
          let slot = ref (-1) in
          if
            Device.walk_records device ~persistent ~addr:(block * bs) ~len:bs
              ~size (fun raw off ->
                incr slot;
                f ~fblock ~block ~slot:!slot raw off)
          then block_loop (fblock + 1)
    in
    block_loop 0

  let scan ?persistent device ~ia f =
    walk ?persistent device ~ia (fun ~fblock ~block ~slot raw off ->
        f ~fblock ~block ~slot (decode raw off))

  (* The name length of an in-use slot; a malformed dirent fails the walk
     with EIO. *)
  let live_name_len ~block ~slot raw off =
    let len = name_len_at raw off in
    if not (valid_len len) then
      Errno.raise_error EIO "dirent block %d slot %d has bad name length %d"
        block slot len;
    len

  type found = { ino : int; fblock : int; block : int; slot : int }

  (* Names are compared where they lie, with no copy. *)
  let find device ~ia name =
    let n = String.length name in
    let rec same raw off i =
      i >= n
      || Bytes.unsafe_get raw (off + i) = String.unsafe_get name i
         && same raw off (i + 1)
    in
    let result = ref None in
    walk device ~ia (fun ~fblock ~block ~slot raw off ->
        let ino = ino_at raw off in
        if ino = 0 then true
        else if live_name_len ~block ~slot raw off = n && same raw (off + 6) 0
        then begin
          result := Some { ino; fblock; block; slot };
          false
        end
        else true);
    !result

  let list device ~ia =
    let acc = ref [] in
    walk device ~ia (fun ~fblock:_ ~block ~slot raw off ->
        let ino = ino_at raw off in
        if ino <> 0 then begin
          let len = live_name_len ~block ~slot raw off in
          acc := (Bytes.sub_string raw (off + 6) len, ino) :: !acc
        end;
        true);
    List.rev !acc

  (* First free slot among the directory's existing dirent blocks, as
     (fblock, block, slot). *)
  let free_slot device ~ia =
    let result = ref None in
    walk device ~ia (fun ~fblock ~block ~slot raw off ->
        if ino_at raw off = 0 then begin
          result := Some (fblock, block, slot);
          false
        end
        else true);
    !result
end
