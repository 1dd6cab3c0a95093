(* The epoch record: the single-cacheline commit point for cross-shard
   transactions.

   Per-shard cacheline logs commit single-shard transactions with ordinary
   commit entries. A cross-shard operation instead stamps one transaction
   per shard with a shared epoch id (Cacheline_log.commit_group) and then
   persists this record; because the record is one cacheline, its store is
   atomic, and every participant becomes durable at the same instant.

   Record layout (first cacheline of the epoch block):
     0..7    committed epoch (u64 LE): all epochs <= this are committed
     8..11   CRC-32C over bytes [0, 8)
     12      valid flag (0xE7)

   The record is generation-local: mount resets it to zero (after journal
   recovery, before the file system is usable), so a stale committed epoch
   from a previous mount can never validate a new generation's entries.
   Runtime epochs start at 1. *)

module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Stats = Hinfs_stats.Stats
module Crc32c = Hinfs_structures.Crc32c

let record_size = 64
let valid_magic = 0xE7
let cat = Stats.Journal

type t = {
  device : Device.t;
  addr : int;
  (* The epoch barrier. The record is a watermark ("all epochs <= N are
     committed"), so epoch N must not be covered while an earlier epoch is
     still mid-prepare: allocate-prepare-commit sections serialize here.
     Cross-shard operations are rare; single-shard commits never touch
     this. *)
  barrier : Hinfs_sim.Resource.t;
  mutable committed : int; (* highest epoch persisted as committed *)
  mutable next : int; (* next epoch id to hand out *)
  mutable commits : int; (* epoch-record commits this mount (gauge) *)
}

let record_image epoch =
  let b = Bytes.make record_size '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int epoch);
  Bytes.set_int32_le b 8 (Int32.of_int (Crc32c.digest b ~off:0 ~len:8));
  Bytes.set_uint8 b 12 valid_magic;
  b

let record_addr device ~block =
  block * (Device.config device).Config.block_size

(* Untimed peek for mount-time recovery: the committed epoch a crash left
   behind. A poisoned, torn, or never-written record reads as 0 — no epoch
   committed — which rolls prepared cross-shard transactions back, the
   conservative direction. *)
let read_committed device ~block =
  let addr = record_addr device ~block in
  if Device.verify_range device ~addr ~len:record_size <> [] then 0
  else begin
    let b = Device.peek_persistent device ~addr ~len:record_size in
    if Bytes.get_uint8 b 12 <> valid_magic then 0
    else begin
      let stored = Int32.to_int (Bytes.get_int32_le b 8) land 0xFFFFFFFF in
      if stored <> Crc32c.digest b ~off:0 ~len:8 then 0
      else Int64.to_int (Bytes.get_int64_le b 0)
    end
  end

(* Reset the record to "no epoch committed" (mount, after recovery).
   Recorder-visible and fenced, so crash enumeration covers a re-crash in
   the middle of the reset; also heals a poisoned record line. *)
let reset device ~block =
  let b = record_image 0 in
  Device.poke_flushed device ~addr:(record_addr device ~block) ~src:b ~off:0
    ~len:record_size;
  Device.fence_untimed device

let create device ~block =
  reset device ~block;
  {
    device;
    addr = record_addr device ~block;
    barrier = Hinfs_sim.Resource.create ~name:"epoch-barrier" ~capacity:1;
    committed = 0;
    next = 1;
    commits = 0;
  }

let committed t = t.committed
let commits t = t.commits

(* Untimed re-persist of the current watermark: the scrubber's poison
   repair for the record's line. Unlike [reset] this keeps the runtime
   committed epoch, so a crash right after the heal still recovers any
   cross-shard commit whose journals have not been checkpointed yet. *)
let heal t =
  let b = record_image t.committed in
  Device.poke_flushed t.device ~addr:t.addr ~src:b ~off:0 ~len:record_size;
  Device.fence_untimed t.device

let next_epoch t =
  let e = t.next in
  t.next <- e + 1;
  e

(* Run one allocate-prepare-commit section under the barrier: [f] receives
   a fresh epoch id, prepares every participant, and commits the record
   before returning. *)
let with_barrier t f =
  Hinfs_sim.Resource.with_resource t.barrier 1 (fun () -> f (next_epoch t))

(* Persist the record with [epoch] as the committed watermark: the atomic
   commit point. Timed (this is the cross-shard commit's critical path).
   Epochs are handed out and committed in increasing order; a concurrent
   later committer simply advances the watermark further, which also
   covers this epoch. *)
let commit t epoch =
  if epoch <= t.committed then ()
  else begin
    let b = record_image epoch in
    Device.write_cached t.device ~cat ~addr:t.addr ~src:b ~off:0
      ~len:record_size;
    Device.clflush t.device ~cat ~addr:t.addr ~len:record_size;
    Device.mfence t.device ~cat;
    t.committed <- epoch;
    t.commits <- t.commits + 1
  end
