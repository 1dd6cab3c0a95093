(* Tests for the cacheline undo journal and the block journal, including
   crash-injection recovery properties. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Log = Hinfs_journal.Cacheline_log
module Bj = Hinfs_journal.Block_journal
module Blockdev = Hinfs_blockdev.Blockdev
module Rng = Hinfs_sim.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cat = Stats.Other

(* Journal occupies blocks [1, 9); metadata target area in block 16+. *)
let journal_first = 1
let journal_blocks = 8
let target_base = 16 * 4096

let make_log engine =
  let d = Testkit.make_device engine in
  let log = Log.create d ~first_block:journal_first ~blocks:journal_blocks in
  (d, log)

(* --- basic transaction flow --- *)

let test_commit_persists_updates () =
  Testkit.run_sim (fun engine ->
      let d, log = make_log engine in
      let fresh = Testkit.pattern_bytes ~seed:1 32 in
      Log.with_txn log (fun txn ->
          Log.log log txn ~addr:target_base ~len:32;
          Device.write_cached d ~cat ~addr:target_base ~src:fresh ~off:0
            ~len:32);
      (* Commit must have flushed the in-place update. *)
      Device.crash d;
      let back = Device.peek d ~addr:target_base ~len:32 in
      Testkit.check_bytes "update persisted by commit" fresh back)

let test_entries_cleared_after_commit () =
  Testkit.run_sim (fun engine ->
      let d, log = make_log engine in
      let initial_free = Log.free_slots log in
      Log.with_txn log (fun txn ->
          Log.log log txn ~addr:target_base ~len:100;
          Device.write_cached d ~cat ~addr:target_base
            ~src:(Bytes.make 100 'y') ~off:0 ~len:100);
      check_int "slots recycled" initial_free (Log.free_slots log);
      check_int "committed count" 1 (Log.txns_committed log))

let test_crash_before_commit_rolls_back () =
  Testkit.run_sim (fun engine ->
      let d, log = make_log engine in
      let old = Testkit.pattern_bytes ~seed:2 64 in
      Device.write_nt d ~cat ~addr:target_base ~src:old ~off:0 ~len:64;
      (* Start a transaction, update in place, flush the update (worst
         case), but crash before commit. *)
      let txn = Log.begin_txn log in
      Log.log log txn ~addr:target_base ~len:64;
      Device.write_cached d ~cat ~addr:target_base ~src:(Bytes.make 64 'Z')
        ~off:0 ~len:64;
      Device.clflush d ~cat ~addr:target_base ~len:64;
      Device.crash d;
      let recovery =
        Log.recover d ~first_block:journal_first ~blocks:journal_blocks ()
      in
      check_int "one txn rolled back" 1 recovery.Log.rolled_back;
      check_int "nothing dropped" 0 recovery.Log.dropped;
      let back = Device.peek_persistent d ~addr:target_base ~len:64 in
      Testkit.check_bytes "old value restored" old back)

let test_crash_after_commit_preserves () =
  Testkit.run_sim (fun engine ->
      let d, log = make_log engine in
      let old = Testkit.pattern_bytes ~seed:3 64 in
      Device.write_nt d ~cat ~addr:target_base ~src:old ~off:0 ~len:64;
      let fresh = Testkit.pattern_bytes ~seed:4 64 in
      Log.with_txn log (fun txn ->
          Log.log log txn ~addr:target_base ~len:64;
          Device.write_cached d ~cat ~addr:target_base ~src:fresh ~off:0
            ~len:64);
      Device.crash d;
      let recovery =
        Log.recover d ~first_block:journal_first ~blocks:journal_blocks ()
      in
      check_int "nothing rolled back" 0 recovery.Log.rolled_back;
      let back = Device.peek_persistent d ~addr:target_base ~len:64 in
      Testkit.check_bytes "committed value kept" fresh back)

let test_abort_restores () =
  Testkit.run_sim (fun engine ->
      let d, log = make_log engine in
      let old = Testkit.pattern_bytes ~seed:5 128 in
      Device.write_nt d ~cat ~addr:target_base ~src:old ~off:0 ~len:128;
      let txn = Log.begin_txn log in
      Log.log log txn ~addr:target_base ~len:128;
      Device.write_cached d ~cat ~addr:target_base ~src:(Bytes.make 128 'q')
        ~off:0 ~len:128;
      Log.abort log txn;
      let back = Device.read_alloc d ~cat ~addr:target_base ~len:128 in
      Testkit.check_bytes "abort restored old value" old back;
      check_int "slots free again"
        (Log.capacity log) (Log.free_slots log))

(* The regression this guards: abort restores the old values and
   invalidates the transaction's entries, but without abort's trailing
   fence the invalidation could still be undecided at a crash. A later
   committed transaction re-modifying the same range would then share a
   crash image with the aborted transaction's still-valid data entries
   (and no commit entry), and recovery would "roll back" the committed
   value to the aborted transaction's stale undo payload. *)
let test_aborted_entries_not_replayed () =
  Testkit.run_sim (fun engine ->
      let d, log = make_log engine in
      let a = Testkit.pattern_bytes ~seed:21 64 in
      Device.write_nt d ~cat ~addr:target_base ~src:a ~off:0 ~len:64;
      Device.flush_all_untimed d;
      Device.enable_recording d;
      (* txn1: update in place, flush the update, then abort. *)
      let txn1 = Log.begin_txn log in
      Log.log log txn1 ~addr:target_base ~len:64;
      Device.write_cached d ~cat ~addr:target_base ~src:(Bytes.make 64 'B')
        ~off:0 ~len:64;
      Device.clflush d ~cat ~addr:target_base ~len:64;
      Log.abort log txn1;
      (* Abort's trailing fence must leave both the restore and the entry
         invalidation decided on the medium — no crash image may differ. *)
      check_int "abort leaves no undecided lines" 0
        (Device.pending_choice_lines d);
      check_int "no valid entries on the medium after abort" 0
        (Log.count_valid_entries d ~first_block:journal_first
           ~blocks:journal_blocks);
      Device.disable_recording d;
      (* txn2: commit a fresh value over the same range. *)
      let c = Testkit.pattern_bytes ~seed:22 64 in
      Log.with_txn log (fun txn ->
          Log.log log txn ~addr:target_base ~len:64;
          Device.write_cached d ~cat ~addr:target_base ~src:c ~off:0 ~len:64);
      (* Crash and remount-style recovery on the image: the committed
         value survives; the aborted transaction is never replayed. *)
      let image = Device.snapshot d in
      let d2 =
        Device.of_snapshot engine (Stats.create ()) Testkit.small_config image
      in
      let recovery =
        Log.recover d2 ~first_block:journal_first ~blocks:journal_blocks ()
      in
      check_int "no txn rolled back" 0 recovery.Log.rolled_back;
      check_int "nothing dropped" 0 recovery.Log.dropped;
      let back = Device.peek_persistent d2 ~addr:target_base ~len:64 in
      Testkit.check_bytes "committed value survives, abort not replayed" c
        back)

let test_with_txn_aborts_on_exception () =
  Testkit.run_sim (fun engine ->
      let d, log = make_log engine in
      let old = Testkit.pattern_bytes ~seed:6 40 in
      Device.write_nt d ~cat ~addr:target_base ~src:old ~off:0 ~len:40;
      (try
         Log.with_txn log (fun txn ->
             Log.log log txn ~addr:target_base ~len:40;
             Device.write_cached d ~cat ~addr:target_base
               ~src:(Bytes.make 40 'e') ~off:0 ~len:40;
             failwith "interrupted")
       with Failure _ -> ());
      let back = Device.read_alloc d ~cat ~addr:target_base ~len:40 in
      Testkit.check_bytes "exception rolled back" old back)

let test_journal_full () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      (* Tiny journal: 1 block = 64 slots. *)
      let log = Log.create d ~first_block:journal_first ~blocks:1 in
      let txn = Log.begin_txn log in
      let raised = ref false in
      (try
         for i = 0 to 100 do
           Log.log log txn ~addr:(target_base + (i * 64)) ~len:44
         done
       with Log.Journal_full -> raised := true);
      check_bool "journal full raised" true !raised)

let test_multi_entry_large_range () =
  Testkit.run_sim (fun engine ->
      let d, log = make_log engine in
      let old = Testkit.pattern_bytes ~seed:7 300 in
      Device.write_nt d ~cat ~addr:target_base ~src:old ~off:0 ~len:300;
      let txn = Log.begin_txn log in
      (* 300 bytes at 40 per entry = 8 entries. *)
      Log.log log txn ~addr:target_base ~len:300;
      check_int "entries written" 8 (Log.entries_written log);
      Device.write_cached d ~cat ~addr:target_base ~src:(Bytes.make 300 'R')
        ~off:0 ~len:300;
      Device.clflush d ~cat ~addr:target_base ~len:300;
      Device.crash d;
      ignore (Log.recover d ~first_block:journal_first ~blocks:journal_blocks ());
      let back = Device.peek_persistent d ~addr:target_base ~len:300 in
      Testkit.check_bytes "multi-entry rollback" old back)

(* Property: random interleaving of committed and crashed transactions
   always recovers to a state where committed values persist and
   uncommitted ones roll back. *)
let crash_recovery_prop =
  QCheck.Test.make ~name:"journal crash recovery" ~count:60
    QCheck.(pair small_nat (list (pair (int_bound 19) bool)))
    (fun (seed, txns) ->
      Testkit.run_sim (fun engine ->
          let d, log = make_log engine in
          let rng = Rng.create ~seed:(Int64.of_int (seed + 1)) in
          (* 20 slots of 64 bytes each; expected.(i) tracks what recovery
             must produce for slot i. Undo-log semantics require that a
             range is never re-logged while a transaction that logged it is
             still live — the FS guarantees this with per-inode locks — so
             once a slot has a hanging (crashed) transaction we stop
             touching it. *)
          let expected = Array.make 20 (Bytes.make 64 '\000') in
          let hanging = Array.make 20 false in
          List.iter
            (fun (slot, commit) ->
              if hanging.(slot) then ()
              else begin
              let addr = target_base + (slot * 64) in
              let fresh =
                Testkit.pattern_bytes ~seed:(Rng.int rng 1_000_000) 64
              in
              let txn = Log.begin_txn log in
              Log.log log txn ~addr ~len:64;
              Device.write_cached d ~cat ~addr ~src:fresh ~off:0 ~len:64;
              if commit then begin
                Log.commit log txn;
                expected.(slot) <- fresh
              end
              else begin
                (* Maybe flush the in-place update (worst case for
                   recovery), then leave the txn hanging. *)
                if Rng.bool rng then Device.clflush d ~cat ~addr ~len:64;
                hanging.(slot) <- true
              end
              end)
            txns;
          Device.crash d;
          ignore
            (Log.recover d ~first_block:journal_first ~blocks:journal_blocks ());
          let ok = ref true in
          Array.iteri
            (fun i want ->
              let got =
                Device.peek_persistent d ~addr:(target_base + (i * 64)) ~len:64
              in
              if not (Bytes.equal got want) then ok := false)
            expected;
          !ok))

(* --- block journal --- *)

let test_block_journal_commit_and_checkpoint () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let bdev = Blockdev.create d in
      let bj = Bj.create bdev ~first_block:32 ~blocks:16 in
      let image = Testkit.pattern_bytes ~seed:8 4096 in
      Bj.journal_metadata bj ~block:100 ~content:(fun () -> image);
      let data_flushed = ref false in
      Bj.add_ordered_data bj (fun () -> data_flushed := true);
      Bj.commit bj;
      check_bool "ordered data flushed" true !data_flushed;
      check_int "commits" 1 (Bj.commits bj);
      let home = Blockdev.peek_block bdev 100 in
      Testkit.check_bytes "checkpointed home" image home)

let test_block_journal_replay () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let bdev = Blockdev.create d in
      let image = Testkit.pattern_bytes ~seed:9 4096 in
      (* Hand-craft a committed-but-not-checkpointed journal. *)
      let descriptor = Bytes.make 4096 '\000' in
      Bytes.set_int32_le descriptor 0 0x4A424432l;
      Bytes.set_int32_le descriptor 4 7l;
      Bytes.set_int32_le descriptor 8 1l;
      Bytes.set_int32_le descriptor 12 200l;
      Bj.seal_block descriptor;
      Blockdev.poke_block bdev 32 ~src:descriptor ~off:0;
      Blockdev.poke_block bdev 33 ~src:image ~off:0;
      let commit = Bytes.make 4096 '\000' in
      Bytes.set_int32_le commit 0 0x434F4D54l;
      Bytes.set_int32_le commit 4 7l;
      Bj.seal_block commit;
      Blockdev.poke_block bdev 34 ~src:commit ~off:0;
      let replayed = Bj.recover bdev ~first_block:32 ~blocks:16 in
      check_bool "replayed" true replayed;
      Testkit.check_bytes "home updated" image (Blockdev.peek_block bdev 200);
      (* Second recovery is a no-op. *)
      check_bool "idempotent" false (Bj.recover bdev ~first_block:32 ~blocks:16))

let test_block_journal_discards_uncommitted () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let bdev = Blockdev.create d in
      let descriptor = Bytes.make 4096 '\000' in
      Bytes.set_int32_le descriptor 0 0x4A424432l;
      Bytes.set_int32_le descriptor 4 9l;
      Bytes.set_int32_le descriptor 8 1l;
      Bytes.set_int32_le descriptor 12 300l;
      Bj.seal_block descriptor;
      Blockdev.poke_block bdev 32 ~src:descriptor ~off:0;
      (* No commit block. *)
      let before = Blockdev.peek_block bdev 300 in
      let replayed = Bj.recover bdev ~first_block:32 ~blocks:16 in
      check_bool "not replayed" false replayed;
      Testkit.check_bytes "home untouched" before (Blockdev.peek_block bdev 300))

(* --- epoch record: heal and generation reset --- *)

module Epoch = Hinfs_journal.Epoch
module Fault = Hinfs_nvmm.Fault

let epoch_block = 12

(* A poisoned epoch-record line reads conservatively as "no epoch
   committed"; [Epoch.heal] re-persists the runtime watermark over the
   untimed reliable path, clearing the poison without losing the
   committed epoch. *)
let test_epoch_heal_poisoned_record () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let fm = Fault.create ~seed:5L () in
      Device.set_fault_model d (Some fm);
      let ep = Epoch.create d ~block:epoch_block in
      Epoch.commit ep 3;
      check_int "watermark persisted" 3
        (Epoch.read_committed d ~block:epoch_block);
      let cfg = Device.config d in
      let bs = cfg.Hinfs_nvmm.Config.block_size in
      let ls = cfg.Hinfs_nvmm.Config.cacheline_size in
      Fault.poison_line fm (epoch_block * bs / ls);
      check_int "poisoned record reads as no commit" 0
        (Epoch.read_committed d ~block:epoch_block);
      Epoch.heal ep;
      check_int "healed record restores watermark" 3
        (Epoch.read_committed d ~block:epoch_block);
      check_bool "poison cleared by heal" true
        (Device.verify_range d ~addr:(epoch_block * bs) ~len:64 = []);
      (* Healing is idempotent. *)
      Epoch.heal ep;
      check_int "second heal is a no-op" 3
        (Epoch.read_committed d ~block:epoch_block))

(* A crash in the middle of the mount-time generation reset must leave
   the record reading as either the old watermark or zero — the reset
   store is recorder-visible, so crash enumeration covers it, and the
   single-cacheline record can never read as garbage. *)
let test_epoch_reset_recrash () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let ep = Epoch.create d ~block:epoch_block in
      Epoch.commit ep 7;
      Device.enable_recording d;
      let captured = ref None in
      Device.set_on_fence d (fun () ->
          if !captured = None && Device.pending_choice_lines d > 0 then
            captured :=
              Some (Device.capture_crash_state ~label:"epoch-reset" d));
      Epoch.reset d ~block:epoch_block;
      Device.disable_recording d;
      check_int "reset applied on the live device" 0
        (Epoch.read_committed d ~block:epoch_block);
      match !captured with
      | None -> Alcotest.fail "reset fence captured no crash state"
      | Some state ->
        let counts =
          List.map (fun (_, c) -> Array.length c) state.Device.cs_choices
        in
        check_bool "reset store is a crash choice" true (counts <> []);
        (* Enumerate every materialisation of the single choice line. *)
        List.iteri
          (fun li n ->
            for c = 0 to n - 1 do
              let vec = Array.make (List.length counts) 0 in
              vec.(li) <- c;
              let image = Device.materialize_crash_image state ~choice:vec in
              let d2 =
                Device.of_snapshot engine (Stats.create ())
                  Testkit.small_config image
              in
              let got = Epoch.read_committed d2 ~block:epoch_block in
              check_bool
                (Printf.sprintf "mid-reset image reads old or zero (got %d)"
                   got)
                true
                (got = 0 || got = 7)
            done)
          counts)

(* --- allocation lifetime ---

   A transaction owns what is allocated under it and what it releases:
   abort hands the allocations back, commit (plain or group) the
   releases. The allocators here stand in for a mount's block and inode
   ranges. *)

module Allocator = Hinfs_nvmm.Allocator

let make_allocators () =
  ( Allocator.create ~policy:Lowest_free ~first_block:100 ~count:64,
    Allocator.create ~policy:Lowest_free ~first_block:1 ~count:16 )

let attach_reclaim log (balloc, ialloc) =
  Log.set_reclaim log (fun r n ->
      match r with
      | Log.Block -> Allocator.free balloc n
      | Log.Inode -> Allocator.free ialloc n)

let alloc a = Option.get (Allocator.alloc a)

let test_allocation_lifetime () =
  Testkit.run_sim (fun engine ->
      let d, log = make_log engine in
      let ((balloc, ialloc) as allocs) = make_allocators () in
      attach_reclaim log allocs;
      let old = Testkit.pattern_bytes ~seed:11 32 in
      Device.write_nt d ~cat ~addr:target_base ~src:old ~off:0 ~len:32;
      let run ~commit =
        let txn = Log.begin_txn log in
        let b = alloc balloc and ino = alloc ialloc in
        Log.allocated txn Log.Block b;
        Log.allocated txn Log.Inode ino;
        Log.log log txn ~addr:target_base ~len:32;
        Device.write_cached d ~cat ~addr:target_base
          ~src:(Bytes.make 32 'n') ~off:0 ~len:32;
        if commit then Log.commit log txn else Log.abort log txn;
        (b, ino)
      in
      let b, ino = run ~commit:false in
      check_int "abort reclaims the block" 64 (Allocator.free_blocks balloc);
      check_int "abort reclaims the inode" 16 (Allocator.free_blocks ialloc);
      Testkit.check_bytes "abort restores" old
        (Device.peek d ~addr:target_base ~len:32);
      let b', ino' = run ~commit:true in
      check_int "lowest free block reissued" b b';
      check_int "lowest free inode reissued" ino ino';
      check_bool "commit keeps the block" true
        (Allocator.is_allocated balloc b);
      check_bool "commit keeps the inode" true
        (Allocator.is_allocated ialloc ino))

let test_release_after_commit () =
  List.iter
    (fun cleaner ->
      Testkit.run_sim (fun engine ->
          let d, log = make_log engine in
          let ((balloc, ialloc) as allocs) = make_allocators () in
          attach_reclaim log allocs;
          if cleaner then Log.start_cleaner log;
          let b = alloc balloc and ino = alloc ialloc in
          let release_in txn =
            Log.log log txn ~addr:target_base ~len:8;
            Device.write_cached d ~cat ~addr:target_base
              ~src:(Bytes.make 8 'r') ~off:0 ~len:8;
            Log.released txn Log.Block b;
            Log.released txn Log.Inode ino
          in
          let name what = Printf.sprintf "%s (cleaner %b)" what cleaner in
          (* An aborted release never happens. *)
          let txn = Log.begin_txn log in
          release_in txn;
          Log.abort log txn;
          check_bool (name "aborted release keeps the block") true
            (Allocator.is_allocated balloc b);
          (* A commit that fails before its entry lands releases nothing. *)
          let txn = Log.begin_txn log in
          release_in txn;
          check_bool (name "held until commit") true
            (Allocator.is_allocated balloc b);
          Log.set_fault_injector log (Some (fun () -> true));
          (match Log.commit log txn with
          | () -> Alcotest.fail "commit entry should have failed"
          | exception Log.Journal_full -> ());
          Log.set_fault_injector log None;
          check_bool (name "failed commit keeps the block") true
            (Allocator.is_allocated balloc b);
          Log.commit log txn;
          check_bool (name "commit frees the block") false
            (Allocator.is_allocated balloc b);
          check_bool (name "commit frees the inode") false
            (Allocator.is_allocated ialloc ino);
          Log.stop_cleaner log))
    [ false; true ]

(* Two logs in one device, one epoch record: the participants of a
   cross-shard operation. *)
let log2_first = 24

let target2 = 40 * 4096

let make_group engine =
  let d, log1 = make_log engine in
  let log2 = Log.create d ~first_block:log2_first ~blocks:journal_blocks in
  let ep = Epoch.create d ~block:epoch_block in
  let allocs = make_allocators () in
  attach_reclaim log1 allocs;
  attach_reclaim log2 allocs;
  (d, log1, log2, ep, allocs)

(* Update [addr] under a fresh transaction on [log] that also allocates
   one block and releases [victim]. *)
let participant d log (balloc, _) ~addr ~victim =
  let txn = Log.begin_txn log in
  Log.allocated txn Log.Block (alloc balloc);
  Log.released txn Log.Block victim;
  Log.log log txn ~addr ~len:16;
  Device.write_cached d ~cat ~addr ~src:(Bytes.make 16 'g') ~off:0 ~len:16;
  txn

let test_group_commit_retires_both () =
  Testkit.run_sim (fun engine ->
      let d, log1, log2, ep, ((balloc, _) as allocs) = make_group engine in
      let v1 = alloc balloc and v2 = alloc balloc in
      let t1 = participant d log1 allocs ~addr:target_base ~victim:v1 in
      let t2 = participant d log2 allocs ~addr:target2 ~victim:v2 in
      Epoch.with_barrier ep (fun id ->
          Log.commit_group ep ~id [ (log1, t1); (log2, t2) ]);
      check_bool "first retired" true (Log.txn_committed t1);
      check_bool "second retired" true (Log.txn_committed t2);
      check_int "no live txns" 0 (Log.live_txns log1 + Log.live_txns log2);
      check_int "record covers the epoch" 1 (Epoch.committed ep);
      check_int "slots recycled" (2 * Log.capacity log1)
        (Log.free_slots log1 + Log.free_slots log2);
      check_bool "releases handed back" false
        (Allocator.is_allocated balloc v1 || Allocator.is_allocated balloc v2);
      check_int "allocations kept" 62 (Allocator.free_blocks balloc);
      Device.crash d;
      let committed_epoch = Epoch.read_committed d ~block:epoch_block in
      List.iter
        (fun (first_block, addr) ->
          let r =
            Log.recover d ~committed_epoch ~first_block
              ~blocks:journal_blocks ()
          in
          check_int "nothing to roll back" 0 r.Log.rolled_back;
          Testkit.check_bytes "update durable" (Bytes.make 16 'g')
            (Device.peek_persistent d ~addr ~len:16))
        [ (journal_first, target_base); (log2_first, target2) ])

(* The second participant cannot append its epoch entry, so the record
   never lands: neither transaction commits, a crash rolls both back, and
   aborting both leaves the allocators exact. *)
let test_group_without_record_aborts_both () =
  let failed_group ~crash =
    Testkit.run_sim (fun engine ->
        let d, log1, log2, ep, ((balloc, _) as allocs) = make_group engine in
        let v1 = alloc balloc and v2 = alloc balloc in
        let t1 = participant d log1 allocs ~addr:target_base ~victim:v1 in
        let t2 = participant d log2 allocs ~addr:target2 ~victim:v2 in
        Log.set_fault_injector log2 (Some (fun () -> true));
        (match
           Epoch.with_barrier ep (fun id ->
               Log.commit_group ep ~id [ (log1, t1); (log2, t2) ])
         with
        | () -> Alcotest.fail "group should have failed"
        | exception Log.Journal_full -> ());
        Log.set_fault_injector log2 None;
        check_bool "neither committed" false
          (Log.txn_committed t1 || Log.txn_committed t2);
        check_int "record not advanced" 0 (Epoch.committed ep);
        if crash then begin
          Device.crash d;
          let committed_epoch = Epoch.read_committed d ~block:epoch_block in
          List.iter
            (fun (first_block, addr) ->
              let r =
                Log.recover d ~committed_epoch ~first_block
                  ~blocks:journal_blocks ()
              in
              check_int "rolled back" 1 r.Log.rolled_back;
              Testkit.check_bytes "update undone" (Bytes.make 16 '\000')
                (Device.peek_persistent d ~addr ~len:16))
            [ (journal_first, target_base); (log2_first, target2) ]
        end
        else begin
          Log.abort log2 t2;
          Log.abort log1 t1;
          check_int "allocations reclaimed, releases kept" 62
            (Allocator.free_blocks balloc);
          check_bool "victims still allocated" true
            (Allocator.is_allocated balloc v1
            && Allocator.is_allocated balloc v2);
          check_int "no valid entries" 0
            (Log.count_valid_entries d ~first_block:journal_first
               ~blocks:journal_blocks
            + Log.count_valid_entries d ~first_block:log2_first
                ~blocks:journal_blocks)
        end)
  in
  failed_group ~crash:true;
  failed_group ~crash:false

(* A transaction's bookkeeping is flat and reused: logging a range it
   already logged allocates nothing. *)
let test_relog_no_alloc () =
  Testkit.run_sim (fun engine ->
      let _d, log = make_log engine in
      let txn = Log.begin_txn log in
      Log.log log txn ~addr:target_base ~len:24;
      let written = Log.entries_written log in
      Testkit.check_no_alloc "re-logging a logged range" (fun () ->
          for _ = 1 to 1000 do
            Log.log log txn ~addr:target_base ~len:24
          done);
      check_int "no entry written" written (Log.entries_written log);
      Log.commit log txn)

(* Many ranges, each logged twice, in one transaction (the dedup table and
   the slot and range arrays grow): one entry per range, and an abort
   restores every one. The next transaction takes the same bookkeeping
   back, emptied: the same ranges are journaled afresh. *)
let test_many_ranges_dedup_and_reuse () =
  Testkit.run_sim (fun engine ->
      let d, log = make_log engine in
      let n = 300 in
      let addr i = target_base + (i * 16) in
      let before = Device.peek d ~addr:target_base ~len:(n * 16) in
      let txn = Log.begin_txn log in
      let written = Log.entries_written log in
      for pass = 1 to 2 do
        for i = 0 to n - 1 do
          Log.log log txn ~addr:(addr i) ~len:8;
          if pass = 1 then Device.set_u64 d ~cat (addr i) (Int64.of_int (i + 1))
        done
      done;
      check_int "one entry per distinct range" n
        (Log.entries_written log - written);
      Log.abort log txn;
      Testkit.check_bytes "abort restored every range" before
        (Device.peek d ~addr:target_base ~len:(n * 16));
      check_int "every slot free" (Log.capacity log) (Log.free_slots log);
      let written = Log.entries_written log in
      Log.with_txn log (fun txn ->
          for i = 0 to n - 1 do
            Log.log log txn ~addr:(addr i) ~len:8
          done);
      check_int "a new transaction logs afresh" n
        (Log.entries_written log - written - 1))

let () =
  Alcotest.run "journal"
    [
      ( "cacheline-log",
        [
          Alcotest.test_case "commit persists" `Quick
            test_commit_persists_updates;
          Alcotest.test_case "entries cleared after commit" `Quick
            test_entries_cleared_after_commit;
          Alcotest.test_case "crash before commit rolls back" `Quick
            test_crash_before_commit_rolls_back;
          Alcotest.test_case "crash after commit preserves" `Quick
            test_crash_after_commit_preserves;
          Alcotest.test_case "abort restores" `Quick test_abort_restores;
          Alcotest.test_case "aborted entries never replayed" `Quick
            test_aborted_entries_not_replayed;
          Alcotest.test_case "with_txn aborts on exception" `Quick
            test_with_txn_aborts_on_exception;
          Alcotest.test_case "journal full" `Quick test_journal_full;
          Alcotest.test_case "multi-entry rollback" `Quick
            test_multi_entry_large_range;
          Alcotest.test_case "re-logging allocates nothing" `Quick
            test_relog_no_alloc;
          Alcotest.test_case "many ranges: dedup, abort, reuse" `Quick
            test_many_ranges_dedup_and_reuse;
        ]
        @ Testkit.qcheck_cases [ crash_recovery_prop ] );
      ( "block-journal",
        [
          Alcotest.test_case "commit and checkpoint" `Quick
            test_block_journal_commit_and_checkpoint;
          Alcotest.test_case "replay" `Quick test_block_journal_replay;
          Alcotest.test_case "discard uncommitted" `Quick
            test_block_journal_discards_uncommitted;
        ] );
      ( "epoch-record",
        [
          Alcotest.test_case "heal poisoned record" `Quick
            test_epoch_heal_poisoned_record;
          Alcotest.test_case "re-crash mid generation reset" `Quick
            test_epoch_reset_recrash;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "abort reclaims, commit keeps" `Quick
            test_allocation_lifetime;
          Alcotest.test_case "release only after commit" `Quick
            test_release_after_commit;
          Alcotest.test_case "group commit retires both" `Quick
            test_group_commit_retires_both;
          Alcotest.test_case "group without record aborts both" `Quick
            test_group_without_record_aborts_both;
        ] );
    ]
