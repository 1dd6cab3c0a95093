(* Two-slot CRC-32C'd root descriptor: the single publication point of the
   CoW substrate. Slot layout (64 bytes = one cacheline):

     0  u32  magic 0x436F5721 ("CoW!")
     4  u32  reserved (zero)
     8  u64  seq
     16 u64  ptrs.(0) .. ptrs.(4)
     56 u32  CRC-32C over bytes [0, 56)
     60 u32  reserved (zero)

   Commit [seq] always targets slot [seq land 1]: the slot holding the
   previously committed root is never touched, so no crash image can lose
   both roots. *)

module Device = Hinfs_nvmm.Device
module Stats = Hinfs_stats.Stats
module Crc32c = Hinfs_structures.Crc32c

let magic = 0x436F5721
let n_ptrs = 5
let slot_size = 64
let crc_off = 56

type desc = { seq : int64; ptrs : int64 array }

let encode d =
  if Array.length d.ptrs <> n_ptrs then
    invalid_arg "Root_swap.encode: wrong ptrs arity";
  let b = Bytes.make slot_size '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int magic);
  Bytes.set_int64_le b 8 d.seq;
  for i = 0 to n_ptrs - 1 do
    Bytes.set_int64_le b (16 + (8 * i)) d.ptrs.(i)
  done;
  let crc = Crc32c.digest b ~off:0 ~len:crc_off in
  Bytes.set_int32_le b crc_off (Int32.of_int crc);
  b

let decode b =
  if Bytes.length b < slot_size then None
  else if Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF <> magic then
    None
  else
    let stored = Int32.to_int (Bytes.get_int32_le b crc_off) land 0xFFFFFFFF in
    if Crc32c.digest b ~off:0 ~len:crc_off <> stored then None
    else
      let seq = Bytes.get_int64_le b 8 in
      let ptrs = Array.init n_ptrs (fun i -> Bytes.get_int64_le b (16 + (8 * i))) in
      Some { seq; ptrs }

let has_magic b =
  Bytes.length b >= 4
  && Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF = magic

let write_initial device ~addr d =
  let b = encode d in
  Device.poke_flushed device ~addr ~src:b ~off:0 ~len:slot_size;
  Device.poke_flushed device ~addr:(addr + slot_size) ~src:b ~off:0
    ~len:slot_size;
  Device.fence_untimed device

let commit device ~cat ~addr d =
  let slot = Int64.to_int d.seq land 1 in
  let slot_addr = addr + (slot * slot_size) in
  let b = encode d in
  Device.write_cached device ~cat ~addr:slot_addr ~src:b ~off:0 ~len:slot_size;
  Device.clflush device ~cat ~addr:slot_addr ~len:slot_size;
  Device.mfence device ~cat

(* A slot is invalid if its line is poisoned or its magic/CRC fail. *)
let read_slot device ~addr =
  let poisoned = Device.verify_range device ~addr ~len:slot_size <> [] in
  let b = Device.peek device ~addr ~len:slot_size in
  if poisoned then (None, has_magic b) else (decode b, has_magic b)

let repair device ~addr winner =
  let b = encode winner in
  Device.poke_flushed device ~addr ~src:b ~off:0 ~len:slot_size;
  Device.fence_untimed device

let load device ~addr =
  let d0, m0 = read_slot device ~addr in
  let d1, m1 = read_slot device ~addr:(addr + slot_size) in
  match (d0, d1) with
  | None, None -> if m0 || m1 then Error `Corrupt else Error `Absent
  | Some d, None ->
    repair device ~addr:(addr + slot_size) d;
    Ok d
  | None, Some d ->
    repair device ~addr d;
    Ok d
  | Some a, Some b ->
    (* Newest wins; ties (both freshly formatted) prefer slot 0. *)
    let w, loser_addr, stale =
      if Int64.compare b.seq a.seq > 0 then (b, addr, true)
      else (a, addr + slot_size, Int64.compare a.seq b.seq > 0)
    in
    if stale then repair device ~addr:loser_addr w;
    Ok w
