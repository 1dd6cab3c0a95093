(* On-line metadata scrubber: walk the device's poisoned cachelines and
   repair what redundancy allows.

   The repair ladder per region ({!Layout.region_of_addr}):

   - superblock copies: rewrite both from the mounted geometry;
   - journal: zero the line — recovery treats unreadable records as
     untrusted and a zeroed slot is simply empty;
   - epoch-record block: re-persist the runtime watermark for the record
     line, zero any other line (it holds nothing);
   - inode table: a free slot is zeroed; a poisoned in-use slot has no
     redundant copy and is unrecoverable;
   - data region: a free block's line is zeroed (it would heal on the next
     allocation's write anyway); an allocated index block is unrecoverable
     (the block tree below it is unreachable); an allocated data block is
     left poisoned — reads there raise EIO, which is data loss but not a
     structural fault.

   An unrecoverable finding degrades the fault domain that owns its
   region, so a sharded mount degrades only the owning shard (the
   superblock and epoch record belong to the mount domain). Passing
   [?shard] scopes the walk to one shard's regions — the online repair
   pass scrubs a degraded shard without touching siblings' poison
   budgets.

   All repairs go through [Device.poke_flushed], the untimed
   reliable-store path that heals poison at the fault model's store hook
   *and* is visible to the persistence recorder, so crash enumeration
   covers a crash in the middle of a scrub. *)

module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Stats = Hinfs_stats.Stats
module Epoch = Hinfs_journal.Epoch
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Fs_ctx = Hinfs_pmfs.Fs_ctx
module Block_tree = Hinfs_pmfs.Block_tree

(* --- the mount scope ---

   The superblock copies and the epoch-record block are healed whole from
   what the mount holds: both superblock copies are rewritten from the
   mounted geometry, and the epoch record (the block's first line) is
   re-persisted from the runtime watermark rather than zeroed — a zeroed
   record would orphan a cross-shard commit whose journals are not yet
   checkpointed. The block's other lines hold nothing: they are zeroed. *)

let block_poisoned fs block =
  let bs = (Pmfs.geometry fs).Layout.block_size in
  Device.verify_range (Pmfs.device fs) ~addr:(block * bs) ~len:bs <> []

let sb_poisoned fs =
  block_poisoned fs 0 || block_poisoned fs (Pmfs.geometry fs).Layout.sb_replica

let heal_superblock fs =
  if sb_poisoned fs then begin
    Layout.write_superblock (Pmfs.device fs) (Pmfs.geometry fs) ~clean:false;
    Stats.add_scrub_repair (Device.stats (Pmfs.device fs))
  end

(* Rewrite the poisoned line at [addr] with zeros, ordered at once. *)
let zero_line fs addr =
  let device = Pmfs.device fs in
  let ls = (Device.config device).Config.cacheline_size in
  Device.poke_flushed device ~addr ~src:(Bytes.make ls '\000') ~off:0 ~len:ls;
  Device.fence_untimed device;
  Stats.add_scrub_repair (Device.stats device)

(* Heal the poisoned line at [addr] of the epoch-record block. *)
let heal_epoch_line fs addr =
  let geo = Pmfs.geometry fs in
  if addr = Layout.epoch_block geo * geo.Layout.block_size then begin
    Epoch.heal (Pmfs.epoch fs);
    Stats.add_scrub_repair (Device.stats (Pmfs.device fs))
  end
  else zero_line fs addr

let heal_mount_scope fs =
  heal_superblock fs;
  let geo = Pmfs.geometry fs in
  let bs = geo.Layout.block_size in
  List.iter (heal_epoch_line fs)
    (Device.verify_range (Pmfs.device fs)
       ~addr:(Layout.epoch_block geo * bs) ~len:bs)

(* One scrub pass; returns the unrecoverable findings, each of which has
   degraded its owning domain. *)
let run ?shard fs =
  let ctx = Pmfs.ctx fs in
  let device = ctx.Fs_ctx.device in
  let geo = ctx.Fs_ctx.geo in
  let heal = zero_line fs in
  (* Scoped runs only look at (and only degrade) one shard's regions. *)
  let in_scope region =
    shard = None || Layout.shard_of_region geo region = shard
  in
  (* Index blocks are metadata living in the data region; find them up
     front so poisoned lines there can be told apart from plain data. *)
  let index_blocks = Hashtbl.create 64 in
  for ino = 1 to geo.Layout.inode_count do
    if Layout.Inode.in_use device geo ino then
      try
        Block_tree.iter_owned ctx ~ino (fun block -> function
          | Index -> Hashtbl.replace index_blocks block ino
          | Data _ -> ())
      with _ -> ()
  done;
  (* Superblock copies first; mount-scoped, so skipped on single-shard
     repair runs. *)
  if shard = None then heal_superblock fs;
  let unrecoverable = ref [] in
  let lose region what = unrecoverable := (region, what) :: !unrecoverable in
  List.iter
    (fun addr ->
      let region = Layout.region_of_addr geo addr in
      if in_scope region then
        match region with
        | Superblock ->
          (* Still poisoned after the rewrite: should not happen (poke
             heals), but record rather than loop. *)
          lose region (Fmt.str "superblock copy at %#x" addr)
        | Journal _ -> heal addr
        | Epoch_record -> heal_epoch_line fs addr
        | Inode_slot ino ->
          if Layout.Inode.in_use device geo ino then
            lose region (Fmt.str "in-use inode %d at %#x" ino addr)
          else heal addr
        | Data_block block -> (
          match Hashtbl.find_opt index_blocks block with
          | Some ino ->
            lose region
              (Fmt.str "index block %d of inode %d at %#x" block ino addr)
          | None ->
            (* Allocated data has no redundant copy: its poison stays so
               reads surface EIO instead of silently returning zeros. *)
            if not (Fs_ctx.block_is_allocated ctx block) then heal addr))
    (Device.verify_range device ~addr:0
       ~len:(geo.Layout.total_blocks * geo.Layout.block_size));
  let unrecoverable = List.rev !unrecoverable in
  List.iter
    (fun (region, what) ->
      Pmfs.degrade_region fs region ("scrub: unrecoverable " ^ what))
    unrecoverable;
  List.map snd unrecoverable
