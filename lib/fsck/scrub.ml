(* On-line metadata scrubber: walk the device's poisoned cachelines and
   repair what redundancy allows.

   The repair ladder per region:

   - superblock copies: rewrite both from the surviving copy (mount already
     picks the good one, so rewriting the current geometry heals either);
   - journal: zero the line — recovery treats unreadable records as
     untrusted and a zeroed slot is simply empty;
   - inode table: a free slot is zeroed; a poisoned in-use slot has no
     redundant copy and is unrecoverable;
   - data region: a free block's line is zeroed (it would heal on the next
     allocation's write anyway); an allocated index block is unrecoverable
     (the block tree below it is unreachable); an allocated data block is
     left poisoned — reads there raise EIO, which is data loss but not a
     structural fault.

   Every heal and every loss is attributed to the shard whose journal
   sub-region / inode range / data range holds the address, so a sharded
   mount degrades only the shard that owns an unrecoverable finding (the
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
module Allocator = Hinfs_nvmm.Allocator
module Stats = Hinfs_stats.Stats
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Fs_ctx = Hinfs_pmfs.Fs_ctx
module Block_tree = Hinfs_pmfs.Block_tree

type report = {
  sb_repairs : int;
  journal_repairs : int;
  itable_repairs : int;
  free_repairs : int;
  data_lost_lines : int;
  unrecoverable : string list;
  repairs_by_shard : int array;  (* heals landing in each shard's ranges *)
  lost_by_shard : int array;  (* data lines lost per shard *)
  remaining_poison : int;  (* poisoned lines left after the scrub pass *)
}

let repairs r =
  r.sb_repairs + r.journal_repairs + r.itable_repairs + r.free_repairs

let clean r = r.unrecoverable = []

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>scrub: %d repair(s) (sb %d, journal %d, itable %d, free %d), %d \
     data line(s) lost%a@]"
    (repairs r) r.sb_repairs r.journal_repairs r.itable_repairs r.free_repairs
    r.data_lost_lines
    (Fmt.list ~sep:(Fmt.any "") (fun ppf v ->
         Fmt.pf ppf "@,  unrecoverable: %s" v))
    r.unrecoverable

let run ?shard fs =
  let ctx = Pmfs.ctx fs in
  let device = ctx.Fs_ctx.device in
  let geo = ctx.Fs_ctx.geo in
  let stats = Device.stats device in
  let bs = geo.Layout.block_size in
  let ls = (Device.config device).Config.cacheline_size in
  let nshards = geo.Layout.shards in
  let zero_line = Bytes.make ls '\000' in
  let sb_repairs = ref 0
  and journal_repairs = ref 0
  and itable_repairs = ref 0
  and free_repairs = ref 0
  and data_lost = ref 0
  and unrecoverable = ref [] in
  let repairs_by_shard = Array.make nshards 0 in
  let lost_by_shard = Array.make nshards 0 in
  let note_shard arr addr =
    match Pmfs.shard_of_addr fs addr with
    | Some s -> arr.(s) <- arr.(s) + 1
    | None -> ()
  in
  let heal counter addr =
    Device.poke_flushed device ~addr ~src:zero_line ~off:0 ~len:ls;
    Device.fence_untimed device;
    Stats.add_scrub_repair stats;
    note_shard repairs_by_shard addr;
    incr counter
  in
  (* Scoped runs only look at (and only degrade) one shard's regions. *)
  let in_scope addr =
    match shard with
    | None -> true
    | Some s -> Pmfs.shard_of_addr fs addr = Some s
  in
  (* Index blocks are metadata living in the data region; build the set up
     front so poisoned lines there can be told apart from plain data. *)
  let index_blocks = Hashtbl.create 64 in
  for ino = 1 to geo.Layout.inode_count do
    if Layout.Inode.in_use device geo ino then
      try
        Block_tree.iter_index_nodes ctx ~ino (fun block ->
            Hashtbl.replace index_blocks block ino)
      with _ -> ()
  done;
  (* Superblock copies first: a bad copy is rewritten from the good one
     (both, in fact — write_superblock refreshes primary and replica).
     Mount-scoped, so skipped on single-shard repair runs. *)
  let sb_poisoned addr = Device.verify_range device ~addr ~len:bs <> [] in
  if
    shard = None
    && (sb_poisoned 0 || sb_poisoned (geo.Layout.sb_replica * bs))
  then begin
    Layout.write_superblock device geo ~clean:false;
    Stats.add_scrub_repair stats;
    incr sb_repairs
  end;
  let addrs =
    List.filter in_scope
      (Device.verify_range device ~addr:0 ~len:(geo.Layout.total_blocks * bs))
  in
  List.iter
    (fun addr ->
      let block = addr / bs in
      if block = 0 || block = geo.Layout.sb_replica then
        (* Still poisoned after the rewrite: should not happen (poke
           heals), but record rather than loop. *)
        unrecoverable :=
          (None, Fmt.str "superblock copy at %#x" addr) :: !unrecoverable
      else if
        block >= geo.Layout.journal_start
        && block < geo.Layout.journal_start + geo.Layout.journal_blocks
      then heal journal_repairs addr
      else if block = Layout.epoch_block geo then begin
        (* Re-persist the epoch record from the runtime watermark rather
           than zeroing: a zeroed record would orphan a cross-shard commit
           whose journals are not yet checkpointed. *)
        Hinfs_journal.Epoch.heal (Pmfs.epoch fs);
        Stats.add_scrub_repair stats;
        incr journal_repairs
      end
      else if
        block >= geo.Layout.itable_start
        && block < geo.Layout.itable_start + geo.Layout.itable_blocks
      then begin
        match Layout.Inode.ino_of_addr geo addr with
        | Some ino when Layout.Inode.in_use device geo ino ->
          unrecoverable :=
            ( Some (Layout.shard_of_ino geo ino),
              Fmt.str "in-use inode %d at %#x" ino addr )
            :: !unrecoverable
        | _ -> heal itable_repairs addr
      end
      else if Hashtbl.mem index_blocks block then
        unrecoverable :=
          ( Some (Layout.shard_of_block geo block),
            Fmt.str "index block %d of inode %d at %#x" block
              (Hashtbl.find index_blocks block)
              addr )
          :: !unrecoverable
      else if Fs_ctx.block_is_allocated ctx block then begin
        (* Allocated data: no redundant copy. Leave the poison in place so
           reads surface EIO instead of silently returning zeros. *)
        note_shard lost_by_shard addr;
        incr data_lost
      end
      else heal free_repairs addr)
    addrs;
  let unrecoverable = List.rev !unrecoverable in
  (* Degrade the owning fault domain, not the fleet: a shard-attributable
     unrecoverable finding takes down that shard only. *)
  List.iter
    (fun (owner, what) ->
      let reason = Fmt.str "scrub: unrecoverable %s" what in
      match owner with
      | Some s -> Pmfs.degrade_shard fs s reason
      | None -> Pmfs.degrade fs reason)
    unrecoverable;
  let remaining_poison =
    List.length
      (List.filter in_scope
         (Device.verify_range device ~addr:0
            ~len:(geo.Layout.total_blocks * bs)))
  in
  {
    sb_repairs = !sb_repairs;
    journal_repairs = !journal_repairs;
    itable_repairs = !itable_repairs;
    free_repairs = !free_repairs;
    data_lost_lines = !data_lost;
    unrecoverable = List.map snd unrecoverable;
    repairs_by_shard;
    lost_by_shard;
    remaining_poison;
  }
