(* Media-fault model tests: deterministic placement, transient retry,
   superblock replica repair, CRC-guarded journal recovery, and the
   read-only degradation ladder. *)

module Engine = Hinfs_sim.Engine
module Stats = Hinfs_stats.Stats
module Crc32c = Hinfs_structures.Crc32c
module Device = Hinfs_nvmm.Device
module Fault = Hinfs_nvmm.Fault
module Log = Hinfs_journal.Cacheline_log
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Errno = Hinfs_vfs.Errno
module Fsck = Hinfs_fsck.Fsck

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cat = Stats.Other
let root = Layout.root_ino
let line_size = 64

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let raises_errno code f =
  match f () with
  | _ -> false
  | exception Errno.Fs_error (c, _) -> c = code

(* --- CRC-32C --- *)

let test_crc32c_vector () =
  (* The Castagnoli check value (RFC 3720 appendix B.4). *)
  check_int "crc32c(123456789)" 0xE3069283 (Crc32c.digest_string "123456789");
  let whole = Crc32c.digest_string "123456789" in
  let b = Bytes.of_string "123456789" in
  let partial = Crc32c.update (Crc32c.digest b ~off:0 ~len:4) b ~off:4 ~len:5 in
  check_int "incremental update matches one-shot" whole partial

(* --- deterministic placement --- *)

(* One full workload under nonzero fault rates; returns every counter the
   model and the stats layer expose. Two runs with the same seed must agree
   bit for bit. *)
let faulty_run () =
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let d, fs = Testkit.make_pmfs ~stats engine in
      let fault =
        Fault.create ~poison_rate:0.005 ~transient_rate:0.005 ~seed:99L ()
      in
      Device.set_fault_model d (Some fault);
      let len = 48 * 1024 in
      let payload = Testkit.pattern_bytes ~seed:5 len in
      let inos =
        List.init 6 (fun i -> Pmfs.create_file fs ~dir:root (Fmt.str "f%d" i))
      in
      List.iter
        (fun ino ->
          ignore
            (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len
               ~sync:true))
        inos;
      let eio = ref 0 in
      List.iter
        (fun ino ->
          let buf = Bytes.create len in
          match Pmfs.read fs ~ino ~off:0 ~len ~into:buf ~into_off:0 with
          | _ -> ()
          | exception Errno.Fs_error (Errno.EIO, _) -> incr eio)
        inos;
      ( Fault.poisoned_lines fault,
        (Fault.store_poisons fault, Fault.heals fault),
        ( !eio,
          Stats.media_faults_transient stats,
          Stats.media_faults_poison stats,
          Stats.media_retries stats ) ))

let test_same_seed_same_faults () =
  let lines1, model1, fsstats1 = faulty_run () in
  let lines2, model2, fsstats2 = faulty_run () in
  check_bool "identical poisoned-line placement" true (lines1 = lines2);
  check_bool "at least one line poisoned" true (lines1 <> []);
  check_bool "identical model counters" true (model1 = model2);
  check_bool "identical fs-level counters" true (fsstats1 = fsstats2)

(* --- transient faults are retried to success --- *)

let test_transient_retried () =
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let d, fs = Testkit.make_pmfs ~stats engine in
      let ino = Pmfs.create_file fs ~dir:root "t" in
      let payload = Testkit.pattern_bytes ~seed:9 48 in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:48 ~sync:true);
      (* Every clean-line load now faults once; the bounded retry consumes
         the pending transient and succeeds on the second attempt. The read
         covers a single cacheline, so exactly one retry is needed. *)
      let fault = Fault.create ~transient_rate:1.0 ~seed:7L () in
      Device.set_fault_model d (Some fault);
      let buf = Bytes.create 48 in
      let n = Pmfs.read fs ~ino ~off:0 ~len:48 ~into:buf ~into_off:0 in
      check_int "bytes read" 48 n;
      Testkit.check_bytes "data intact after retry" payload (Bytes.sub buf 0 48);
      check_int "one transient fault" 1 (Stats.media_faults_transient stats);
      check_int "one retry" 1 (Stats.media_retries stats);
      check_bool "mount still read-write" false (Pmfs.read_only fs))

(* --- superblock replica repair --- *)

let test_superblock_repaired_from_replica () =
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let d, fs = Testkit.make_pmfs ~stats engine in
      let ino = Pmfs.create_file fs ~dir:root "keep" in
      let payload = Testkit.pattern_bytes ~seed:11 4096 in
      ignore
        (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096
           ~sync:true);
      Pmfs.unmount fs;
      let fault = Fault.create ~seed:1L () in
      Device.set_fault_model d (Some fault);
      (* Strike the first line of the primary superblock. *)
      Fault.poison_line fault 0;
      let fs = Pmfs.mount d () in
      check_bool "mounted read-write" false (Pmfs.read_only fs);
      check_bool "primary repaired (poison healed)" false
        (Fault.is_poisoned fault 0);
      check_bool "repair counted" true (Stats.scrub_repairs stats >= 1);
      let buf = Bytes.create 4096 in
      let n = Pmfs.read fs ~ino ~off:0 ~len:4096 ~into:buf ~into_off:0 in
      check_int "file length intact" 4096 n;
      Testkit.check_bytes "file intact after repair" payload buf)

(* Both superblock copies struck: the device is formatted but its geometry
   is unreadable. The mount must fail cleanly with EIO — fabricating a
   mount from a guessed geometry would corrupt whatever is still
   recoverable offline. *)
let test_both_superblocks_corrupt_mount_eio () =
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let d, fs = Testkit.make_pmfs ~stats engine in
      let geo = Pmfs.geometry fs in
      ignore (Pmfs.create_file fs ~dir:root "keep");
      Pmfs.unmount fs;
      let fault = Fault.create ~seed:2L () in
      Device.set_fault_model d (Some fault);
      Fault.poison_line fault 0;
      Fault.poison_line fault
        (geo.Layout.sb_replica * geo.Layout.block_size / line_size);
      match Pmfs.mount d () with
      | _ -> Alcotest.fail "mount succeeded with both superblocks corrupt"
      | exception Errno.Fs_error (Errno.EIO, msg) ->
        check_bool "failure names the superblock" true
          (contains msg "superblock"))

(* --- resource exhaustion --- *)

(* Fill a small device to exhaustion: every failed operation must surface
   as a stable ENOSPC, and the aborted operations must leak nothing — the
   live allocators still cover exactly the reachable set, and freeing
   space makes the file system fully writable again. *)
let test_enospc_exhaustion_leak_free () =
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let config =
        { Hinfs_nvmm.Config.default with
          Hinfs_nvmm.Config.nvmm_size = 2 * 1024 * 1024
        }
      in
      let d = Testkit.make_device ~config ~stats engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:8 () in
      let chunk = 16 * 1024 in
      let payload = Testkit.pattern_bytes ~seed:31 chunk in
      let created = ref [] in
      let failures = ref 0 in
      (try
         for i = 0 to 10_000 do
           let name = Fmt.str "fill%04d" i in
           let ino = Pmfs.create_file fs ~dir:root name in
           created := (name, ino) :: !created;
           ignore
             (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:chunk
                ~sync:true)
         done;
         Alcotest.fail "2 MB device absorbed 160 MB of writes"
       with Errno.Fs_error (Errno.ENOSPC, _) -> incr failures);
      (* Exhaustion is sticky and stable: further attempts keep failing
         with ENOSPC (never a crash, never a different errno). *)
      for i = 1 to 8 do
        let name = Fmt.str "retry%02d" i in
        match Pmfs.create_file fs ~dir:root name with
        | ino ->
          (match
             Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:chunk
               ~sync:true
           with
          | _ -> ()
          | exception Errno.Fs_error (Errno.ENOSPC, _) -> incr failures);
          Pmfs.unlink fs ~dir:root name
        | exception Errno.Fs_error (Errno.ENOSPC, _) -> incr failures
      done;
      check_bool "exhaustion reached" true (!failures > 0);
      (* No leaks: the live allocators must agree with the reachable set
         even after all those aborted operations. *)
      let freport = Fsck.check_pmfs fs in
      check_bool
        (Fmt.str "fsck clean on the exhausted live mount: %a" Fsck.pp_report
           freport)
        true (Fsck.ok freport);
      check_int "no leaked blocks" 0 freport.Fsck.leaked_blocks;
      check_int "no leaked inodes" 0 freport.Fsck.leaked_inodes;
      (* Freeing space restores full service. *)
      (match !created with
      | (name, _) :: (name2, _) :: _ ->
        Pmfs.unlink fs ~dir:root name;
        Pmfs.unlink fs ~dir:root name2
      | _ -> Alcotest.fail "device filled before creating two files");
      let ino = Pmfs.create_file fs ~dir:root "after" in
      let n =
        Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:chunk
          ~sync:true
      in
      check_int "write succeeds after space freed" chunk n;
      (* And the image is still consistent across a remount. *)
      Pmfs.unmount fs;
      let fs = Pmfs.mount d () in
      let freport = Fsck.check_pmfs fs in
      check_bool "fsck clean after remount" true (Fsck.ok freport);
      let buf = Bytes.create chunk in
      let n = Pmfs.read fs ~ino ~off:0 ~len:chunk ~into:buf ~into_off:0 in
      check_int "data intact" chunk n;
      Testkit.check_bytes "data intact after remount" payload buf)

(* --- forced failures are net-zero ---

   Every PMFS namespace and data op, failed at each opportunity of each
   operation-level fault kind, must hand back every block and inode it
   took: the free counts equal those before the op, and fsck finds no
   leak on the live mount. Each attempt runs on a fresh mount, so a
   failure at opportunity [k] sees exactly the state the op started
   from. *)

module Faultops = Hinfs_nvmm.Faultops
module Fs_ctx = Hinfs_pmfs.Fs_ctx

let dirents_per_block = 4096 / Hinfs_pmfs.Media.Dirent.size

let put fs ~ino ~fblock ~blocks =
  let len = blocks * 4096 in
  ignore
    (Pmfs.write fs ~ino ~off:(fblock * 4096) ~src:(Bytes.make len 'd')
       ~src_off:0 ~len ~sync:true)

(* A directory holding [n] entries. *)
let dir_with fs name n =
  let dir = Pmfs.mkdir fs ~dir:root name in
  for i = 1 to n do
    ignore (Pmfs.create_file fs ~dir (Fmt.str "e%02d" i))
  done;
  dir

(* Each case sets up its preconditions and returns the op to fail. *)
let net_zero_cases =
  [
    ( "create",
      fun fs ->
        (* Its dirent block is full: the insertion allocates. *)
        let dir = dir_with fs "d" dirents_per_block in
        fun () -> ignore (Pmfs.create_file fs ~dir "new") );
    ( "write",
      fun fs ->
        let ino = Pmfs.create_file fs ~dir:root "f" in
        put fs ~ino ~fblock:0 ~blocks:1;
        (* Block 600 needs a taller tree: index nodes plus data. *)
        fun () -> put fs ~ino ~fblock:600 ~blocks:2 );
    ( "truncate",
      fun fs ->
        let ino = Pmfs.create_file fs ~dir:root "f" in
        put fs ~ino ~fblock:0 ~blocks:4;
        fun () -> Pmfs.truncate fs ~ino ~size:4196 );
    ( "unlink",
      fun fs ->
        let ino = Pmfs.create_file fs ~dir:root "f" in
        put fs ~ino ~fblock:0 ~blocks:3;
        put fs ~ino ~fblock:600 ~blocks:1;
        fun () -> Pmfs.unlink fs ~dir:root "f" );
    ( "rename same shard",
      fun fs ->
        let dir = dir_with fs "d" (dirents_per_block - 1) in
        let ino = Pmfs.create_file fs ~dir "src" in
        put fs ~ino ~fblock:0 ~blocks:1;
        (* The dirent block is full: the insertion, which runs before the
           source's removal, allocates. *)
        fun () -> Pmfs.rename fs ~src_dir:dir ~src:"src" ~dst_dir:dir ~dst:"dst"
    );
    ( "rename cross shard",
      fun fs ->
        let a = Pmfs.mkdir fs ~dir:root "a" in
        let b = Pmfs.mkdir fs ~dir:root "b" in
        if Pmfs.shard_of_ino fs a = Pmfs.shard_of_ino fs b then
          Alcotest.fail "directories a and b share a shard";
        let ino = Pmfs.create_file fs ~dir:a "src" in
        put fs ~ino ~fblock:0 ~blocks:1;
        let victim = Pmfs.create_file fs ~dir:b "dst" in
        put fs ~ino:victim ~fblock:0 ~blocks:2;
        (* Replacing the target releases its blocks and inode. *)
        fun () -> Pmfs.rename fs ~src_dir:a ~src:"src" ~dst_dir:b ~dst:"dst" );
  ]

(* Force [name]'s op to fail at opportunity [k] of [kind]. A sharded
   mount absorbs a failed allocation by borrowing from the next shard's
   range, so a fault that fires need not fail the op. *)
let fail_at ~shards (name, setup) kind k =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 ~shards () in
      let op = setup fs in
      let fo = Faultops.create ~seed:1L () in
      Pmfs.attach_faultops fs (Some fo);
      let ctx = Pmfs.ctx fs in
      let blocks = Fs_ctx.free_data_blocks ctx in
      let inodes = Fs_ctx.free_inodes ctx in
      Faultops.force fo kind ~after:k;
      let what =
        Fmt.str "%s, %d shard(s), %s at opportunity %d" name shards
          (Faultops.kind_name kind) k
      in
      match op () with
      | () ->
        if Faultops.injected fo kind = 0 then `Not_reached
        else if shards > 1 && kind <> Faultops.Journal_slot then `Absorbed
        else Alcotest.failf "%s: the fault fired but the op succeeded" what
      | exception _ ->
        check_int (what ^ ": the forced fault failed it") 1
          (Faultops.injected fo kind);
        check_int (what ^ ": free blocks") blocks (Fs_ctx.free_data_blocks ctx);
        check_int (what ^ ": free inodes") inodes (Fs_ctx.free_inodes ctx);
        let r = Fsck.check_pmfs fs in
        check_bool
          (Fmt.str "%s: fsck clean: %a" what Fsck.pp_report r)
          true (Fsck.ok r);
        check_int (what ^ ": leaked blocks") 0 r.Fsck.leaked_blocks;
        check_int (what ^ ": leaked inodes") 0 r.Fsck.leaked_inodes;
        `Failed)

let test_forced_failures_net_zero ~shards () =
  List.iter
    (fun ((name, _) as case) ->
      if shards > 1 || name <> "rename cross shard" then
        List.iter
          (fun kind ->
            let rec count k failed =
              match fail_at ~shards case kind k with
              | `Not_reached -> failed
              | `Absorbed -> count (k + 1) failed
              | `Failed -> count (k + 1) (failed + 1)
            in
            let failed = count 0 0 in
            (* Vacuity: the paths this test exists for are reached. *)
            let expected =
              match (kind, name) with
              | Faultops.Journal_slot, _ -> true
              | Faultops.Inode_alloc, "create" -> shards = 1
              | Faultops.Block_alloc,
                ("create" | "write" | "rename same shard") ->
                shards = 1
              | _ -> false
            in
            if expected then
              check_bool
                (Fmt.str "%s fails at some %s opportunity" name
                   (Faultops.kind_name kind))
                true (failed > 0))
          Faultops.kinds)
    net_zero_cases

(* HiNFS: a lazy write's segment fails inside [Block_tree.ensure], after
   it allocated part of the path. The pending transaction must stay valid
   for either ending: unlink aborts it, fsync commits it, and both leave
   the allocators covering exactly the reachable set. *)
let test_hinfs_failed_segment ~unlink () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let pmfs = Hinfs.Fs.pmfs fs in
      let ctx = Pmfs.ctx pmfs in
      (* The root directory's first dirent block outlives the file. *)
      ignore (Pmfs.create_file pmfs ~dir:root "keep");
      let blocks = Fs_ctx.free_data_blocks ctx in
      let inodes = Fs_ctx.free_inodes ctx in
      let ino = Pmfs.create_file pmfs ~dir:root "lazy" in
      let fo = Faultops.create ~seed:1L () in
      Pmfs.attach_faultops pmfs (Some fo);
      let src = Bytes.make 4096 'z' in
      let write fblock =
        ignore
          (Hinfs.Fs.write fs ~ino ~off:(fblock * 4096) ~src ~src_off:0
             ~len:4096 ~sync:false)
      in
      write 0;
      check_int "lazy write holds a pending transaction" 1
        (Hinfs.Fs.pending_txns fs);
      (* Block 600 grows the tree by two index nodes, then needs a child
         node and the data block: fail the child, after the two nodes. *)
      Faultops.force fo Faultops.Block_alloc ~after:2;
      (match write 600 with
      | () -> Alcotest.fail "the forced allocation failure did not fire"
      | exception Errno.Fs_error (Errno.ENOSPC, _) -> ());
      check_int "failed inside ensure" 1
        (Faultops.injected fo Faultops.Block_alloc);
      check_int "the pending transaction survives" 1
        (Hinfs.Fs.pending_txns fs);
      if unlink then begin
        Hinfs.Fs.unlink fs ~dir:root "lazy";
        check_int "abort hands every block back" blocks
          (Fs_ctx.free_data_blocks ctx);
        check_int "and the inode" inodes (Fs_ctx.free_inodes ctx)
      end
      else begin
        Hinfs.Fs.fsync fs ~ino;
        check_int "commit keeps the first write's block" (blocks - 1)
          (Fs_ctx.free_data_blocks ctx);
        check_int "and the inode" (inodes - 1) (Fs_ctx.free_inodes ctx)
      end;
      check_int "no pending transaction left" 0 (Hinfs.Fs.pending_txns fs);
      let r = Fsck.check_pmfs pmfs in
      check_bool (Fmt.str "fsck clean: %a" Fsck.pp_report r) true (Fsck.ok r);
      check_int "no leaked blocks" 0 r.Fsck.leaked_blocks;
      check_int "no leaked inodes" 0 r.Fsck.leaked_inodes)

(* --- CRC-guarded journal recovery --- *)

let journal_first = 1
let journal_blocks = 8
let target_base = 16 * 4096

let test_corrupt_commit_detected () =
  (* encode/corrupt unit check first. *)
  let entry =
    Log.encode_entry ~txn_id:1 ~seq:0 ~entry_type:Log.type_commit ~addr:0
      ~payload:Bytes.empty
  in
  check_bool "fresh entry passes CRC" true (Log.entry_crc_ok entry);
  let bad = Bytes.copy entry in
  Bytes.set_uint8 bad 20 (Bytes.get_uint8 bad 20 lxor 0xFF);
  check_bool "corrupt entry fails CRC" false (Log.entry_crc_ok bad);
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let d = Testkit.make_device ~stats engine in
      let log = Log.create d ~first_block:journal_first ~blocks:journal_blocks in
      let old = Testkit.pattern_bytes ~seed:2 64 in
      Device.write_nt d ~cat ~addr:target_base ~src:old ~off:0 ~len:64;
      (* Transaction logs the range and updates in place, but its commit
         record reaches the medium torn: the stored CRC does not match. *)
      let txn = Log.begin_txn log in
      Log.log log txn ~addr:target_base ~len:64;
      Device.write_cached d ~cat ~addr:target_base ~src:(Bytes.make 64 'Z')
        ~off:0 ~len:64;
      Device.clflush d ~cat ~addr:target_base ~len:64;
      (* The 64-byte range takes two undo entries (slots 0-1); the torn
         commit record lands in slot 2. *)
      Device.poke d
        ~addr:((journal_first * 4096) + (2 * Log.entry_size))
        ~src:bad ~off:0 ~len:Log.entry_size;
      Device.crash d;
      let recovery =
        Log.recover d ~first_block:journal_first ~blocks:journal_blocks ()
      in
      check_int "untrusted commit dropped" 1 recovery.Log.dropped;
      check_int "txn rolled back despite torn commit" 1
        recovery.Log.rolled_back;
      check_bool "mismatch counted" true (Stats.crc_mismatches stats >= 1);
      let back = Device.peek_persistent d ~addr:target_base ~len:64 in
      Testkit.check_bytes "old value restored" old back)

let test_corrupt_journal_degrades_mount () =
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let d, fs = Testkit.make_pmfs ~stats engine in
      let geo = Pmfs.geometry fs in
      let ino = Pmfs.create_file fs ~dir:root "survivor" in
      let payload = Testkit.pattern_bytes ~seed:13 1024 in
      ignore
        (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:1024
           ~sync:true);
      Pmfs.unmount fs;
      (* Fake an unclean shutdown that left a torn commit record behind:
         clear the clean flag and plant a checksum-invalid record. *)
      Device.poke d ~addr:Layout.Sb.clean_unmount_off
        ~src:(Bytes.make 1 '\000') ~off:0 ~len:1;
      let entry =
        Log.encode_entry ~txn_id:1 ~seq:0 ~entry_type:Log.type_commit ~addr:0
          ~payload:Bytes.empty
      in
      Bytes.set_uint8 entry 20 (Bytes.get_uint8 entry 20 lxor 0xFF);
      Device.poke d
        ~addr:(geo.Layout.journal_start * geo.Layout.block_size)
        ~src:entry ~off:0 ~len:Log.entry_size;
      let fs = Pmfs.mount d () in
      check_bool "mount degraded to read-only" true (Pmfs.read_only fs);
      check_bool "mismatch counted" true (Stats.crc_mismatches stats >= 1);
      let buf = Bytes.create 1024 in
      let n = Pmfs.read fs ~ino ~off:0 ~len:1024 ~into:buf ~into_off:0 in
      check_int "reads still served" 1024 n;
      Testkit.check_bytes "data intact" payload buf;
      check_bool "mutations raise EROFS" true
        (raises_errno Errno.EROFS (fun () ->
             Pmfs.create_file fs ~dir:root "nope")))

(* --- unrecoverable itable poison: read-only with reads served --- *)

let test_itable_poison_mounts_read_only () =
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let d, fs = Testkit.make_pmfs ~stats engine in
      let geo = Pmfs.geometry fs in
      let ino = Pmfs.create_file fs ~dir:root "victim" in
      let payload = Testkit.pattern_bytes ~seed:17 4096 in
      ignore
        (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096
           ~sync:true);
      Pmfs.unmount fs;
      let fault = Fault.create ~seed:3L () in
      Device.set_fault_model d (Some fault);
      (* Poison the live inode's slot in the table: no redundant copy
         exists, so the mount must degrade rather than trust it. *)
      Fault.poison_line fault (Layout.Inode.addr geo ino / line_size);
      let fs = Pmfs.mount d () in
      check_bool "mount degraded to read-only" true (Pmfs.read_only fs);
      (match Pmfs.read_only_reason fs with
      | Some reason ->
        check_bool "reason names the inode table" true
          (contains reason "inode")
      | None -> Alcotest.fail "degraded mount must carry a reason");
      let buf = Bytes.create 4096 in
      let n = Pmfs.read fs ~ino ~off:0 ~len:4096 ~into:buf ~into_off:0 in
      check_int "reads still served" 4096 n;
      Testkit.check_bytes "data intact" payload buf;
      check_bool "create raises EROFS" true
        (raises_errno Errno.EROFS (fun () ->
             Pmfs.create_file fs ~dir:root "nope"));
      check_bool "unlink raises EROFS" true
        (raises_errno Errno.EROFS (fun () ->
             Pmfs.unlink fs ~dir:root "victim"));
      ignore stats)

(* --- per-shard fault domains --- *)

module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Obs = Hinfs_obs.Obs
module Hist = Hinfs_obs.Hist

(* Poison [n] lines spread over repair domain [s]'s journal region:
   latent damage only a repair pass heals. *)
let poison_journal fm fs s n =
  let geo = Pmfs.geometry fs in
  let bs = geo.Layout.block_size in
  let first_block, blocks = Layout.journal_region geo s in
  let total_lines = blocks * bs / line_size in
  for k = 0 to n - 1 do
    Fault.poison_line fm ((first_block * bs / line_size) + (k * total_lines / n))
  done

let journal_clean d fs s =
  let geo = Pmfs.geometry fs in
  let bs = geo.Layout.block_size in
  let first_block, blocks = Layout.journal_region geo s in
  Device.verify_range d ~addr:(first_block * bs) ~len:(blocks * bs) = []

(* One directory per shard of a sharded mount, names derived from the
   owner probe. *)
let dirs_by_shard fs =
  let n = Pmfs.shard_count fs in
  let dir_of = Array.make n None in
  for i = 0 to 4 * n - 1 do
    let name = Fmt.str "c%d" i in
    let ino = Pmfs.mkdir fs ~dir:root name in
    let s = Pmfs.shard_of_ino fs ino in
    if dir_of.(s) = None then dir_of.(s) <- Some name
  done;
  Array.map Option.get dir_of

(* A degraded shard seen across the VFS boundary: it serves reads and
   fsync and rejects mutations with EROFS, while sibling shards in the
   same mount keep serving create/write/fsync and the mount never goes
   read-only. A repair pass re-admits it in place. *)
let test_degraded_shard_vfs_boundary () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 ~shards:4 () in
      let h = Pmfs.handle fs in
      let dirs = dirs_by_shard fs in
      let victim = 1 in
      let sibling = 2 in
      let payload = Bytes.make 512 'q' in
      let vfile = Fmt.str "/%s/f" dirs.(victim) in
      let sfile = Fmt.str "/%s/f" dirs.(sibling) in
      let vfd = h.Vfs.open_ vfile { Types.creat with Types.read = true } in
      let sfd = h.Vfs.open_ sfile { Types.creat with Types.read = true } in
      ignore (h.Vfs.pwrite vfd ~off:0 payload 512);
      ignore (h.Vfs.pwrite sfd ~off:0 payload 512);
      h.Vfs.fsync vfd;
      h.Vfs.fsync sfd;
      let fm = Fault.create ~seed:9L () in
      Device.set_fault_model d (Some fm);
      poison_journal fm fs victim 4;
      Pmfs.degrade_shard fs victim "test: poisoned shard journal";
      let buf = Bytes.create 512 in
      check_int "degraded shard still serves reads" 512
        (h.Vfs.pread vfd ~off:0 buf 512);
      Testkit.check_bytes "degraded shard reads intact data" payload buf;
      h.Vfs.fsync vfd;
      check_bool "degraded shard rejects writes EROFS" true
        (raises_errno Errno.EROFS (fun () -> h.Vfs.pwrite vfd ~off:0 payload 512));
      check_bool "degraded shard rejects create EROFS" true
        (raises_errno Errno.EROFS (fun () ->
             h.Vfs.open_ (Fmt.str "/%s/new" dirs.(victim)) Types.creat));
      (* Containment: the sibling shard and the mount are untouched. *)
      check_bool "mount never flips read-only" false (Pmfs.read_only fs);
      let nfd =
        h.Vfs.open_
          (Fmt.str "/%s/new" dirs.(sibling))
          { Types.creat with Types.read = true }
      in
      ignore (h.Vfs.pwrite nfd ~off:0 payload 512);
      h.Vfs.fsync nfd;
      check_int "sibling shard serves reads" 512 (h.Vfs.pread nfd ~off:0 buf 512);
      (* Re-admission by a real repair pass restores full service. *)
      let repaired, failed = Hinfs_fsck.Repair.run_once fs in
      check_int "victim re-admitted" 1 repaired;
      check_int "no repair failed" 0 failed;
      check_bool "victim journal poison healed" true (journal_clean d fs victim);
      ignore (h.Vfs.pwrite vfd ~off:0 payload 512);
      h.Vfs.fsync vfd;
      check_int "re-admitted shard serves reads" 512
        (h.Vfs.pread vfd ~off:0 buf 512);
      check_bool "all domains healthy again" true (Pmfs.fully_healthy fs))

(* PMFS's data path retries a transient read fault: under a storm that
   faults every fresh line once, the read still completes with the
   written bytes, the retries are counted, and no domain degrades. *)
let test_transient_storm_retried () =
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let d, fs = Testkit.make_pmfs ~stats engine in
      let len = 4096 in
      let payload = Testkit.pattern_bytes ~seed:21 len in
      let ino = Pmfs.create_file fs ~dir:root "jittery" in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len ~sync:true);
      (* Every fresh line faults once; a single-line read therefore
         faults on the first attempt and succeeds on the retry. *)
      Device.set_fault_model d
        (Some (Fault.create ~transient_rate:1.0 ~seed:11L ()));
      let buf = Bytes.create line_size in
      let n = Pmfs.read fs ~ino ~off:0 ~len:line_size ~into:buf ~into_off:0 in
      check_int "read completes under storm" line_size n;
      Testkit.check_bytes "retried read returns true data"
        (Bytes.sub payload 0 line_size)
        buf;
      check_bool "retries recorded" true (Stats.media_retries stats > 0);
      check_bool "no degradation from transient faults" true
        (Pmfs.fully_healthy fs))

(* A degraded domain is not degraded-forever: the repair pass runs in
   place — journal re-replay, scrub, fsck — and re-admits the domain once
   the image verifies clean. The domain is the whole mount when unsharded
   and one shard otherwise; on a sharded mount the siblings and the mount
   stay read-write throughout. A second fault cycle must be repaired and
   re-admitted again. *)
let test_repair_in_place ~shards () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 ~shards () in
      let lookup name = Option.get (Pmfs.lookup fs ~dir:root name) in
      let victim, dir, sibling =
        if shards = 1 then (0, root, None)
        else
          let dirs = dirs_by_shard fs in
          (1, lookup dirs.(1), Some (lookup dirs.(2)))
      in
      let len = 4096 in
      let payload = Testkit.pattern_bytes ~seed:33 len in
      let ino = Pmfs.create_file fs ~dir "survivor" in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len ~sync:true);
      let fm = Fault.create ~seed:5L () in
      Device.set_fault_model d (Some fm);
      for cycle = 1 to 2 do
        (* Latent damage the scrubber can heal: poison over the (idle)
           journal region, plus the degradation a foreground uncorrectable
           metadata read would have caused. *)
        poison_journal fm fs victim (2 * cycle);
        Pmfs.degrade_shard fs victim "uncorrectable media error (injected)";
        check_bool "domain degraded" true (Pmfs.domain_fault fs victim <> None);
        check_bool "mount read-only iff unsharded" (shards = 1)
          (Pmfs.read_only fs);
        check_bool "mutations fail EROFS while degraded" true
          (raises_errno Errno.EROFS (fun () ->
               ignore (Pmfs.create_file fs ~dir (Fmt.str "blocked%d" cycle))));
        check_int "reads still served while degraded" len
          (Pmfs.read fs ~ino ~off:0 ~len ~into:(Bytes.create len) ~into_off:0);
        (match sibling with
        | None -> ()
        | Some sdir ->
          let sino = Pmfs.create_file fs ~dir:sdir (Fmt.str "s%d" cycle) in
          ignore
            (Pmfs.write fs ~ino:sino ~off:0 ~src:payload ~src_off:0 ~len
               ~sync:true));
        (* One in-place repair pass: drain (trivially empty), journal
           re-replay, epoch heal, scrub, fsck verify, re-admit. *)
        let repaired, failed = Hinfs_fsck.Repair.run_once fs in
        check_int "one repair completed" 1 repaired;
        check_int "no repair failed" 0 failed;
        check_bool "domain re-admitted" true (Pmfs.fully_healthy fs);
        check_bool "journal poison healed" true (journal_clean d fs victim);
        (* Full read-write service is restored and data survived. *)
        let ino2 = Pmfs.create_file fs ~dir (Fmt.str "after-heal%d" cycle) in
        ignore
          (Pmfs.write fs ~ino:ino2 ~off:0 ~src:payload ~src_off:0 ~len
             ~sync:true);
        let buf = Bytes.create len in
        check_int "survivor still reads" len
          (Pmfs.read fs ~ino ~off:0 ~len ~into:buf ~into_off:0);
        Testkit.check_bytes "survivor content intact" payload buf
      done;
      (* A healthy mount is a no-op for the next pass. *)
      let r2, f2 = Hinfs_fsck.Repair.run_once fs in
      check_int "healthy mount needs no repair" 0 r2;
      check_int "healthy mount fails no repair" 0 f2)

let () =
  Alcotest.run "faults"
    [
      ( "crc32c",
        [ Alcotest.test_case "known vector" `Quick test_crc32c_vector ] );
      ( "fault-model",
        [
          Alcotest.test_case "same seed, same faults" `Quick
            test_same_seed_same_faults;
          Alcotest.test_case "transient retried" `Quick test_transient_retried;
        ] );
      ( "repair",
        [
          Alcotest.test_case "superblock replica repair" `Quick
            test_superblock_repaired_from_replica;
          Alcotest.test_case "both superblocks corrupt mounts EIO" `Quick
            test_both_superblocks_corrupt_mount_eio;
        ] );
      ( "exhaustion",
        [
          Alcotest.test_case "ENOSPC soak is leak-free" `Quick
            test_enospc_exhaustion_leak_free;
          Alcotest.test_case "forced failures net-zero, unsharded" `Quick
            (test_forced_failures_net_zero ~shards:1);
          Alcotest.test_case "forced failures net-zero, 4 shards" `Quick
            (test_forced_failures_net_zero ~shards:4);
          Alcotest.test_case "hinfs failed segment, then unlink" `Quick
            (test_hinfs_failed_segment ~unlink:true);
          Alcotest.test_case "hinfs failed segment, then fsync" `Quick
            (test_hinfs_failed_segment ~unlink:false);
        ] );
      ( "journal-crc",
        [
          Alcotest.test_case "corrupt commit detected" `Quick
            test_corrupt_commit_detected;
          Alcotest.test_case "corrupt journal degrades mount" `Quick
            test_corrupt_journal_degrades_mount;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "itable poison mounts read-only" `Quick
            test_itable_poison_mounts_read_only;
        ] );
      ( "fault-domains",
        [
          Alcotest.test_case "degraded shard at the VFS boundary" `Quick
            test_degraded_shard_vfs_boundary;
          Alcotest.test_case "transient storm retried" `Quick
            test_transient_storm_retried;
          Alcotest.test_case "unsharded mount repaired in place" `Quick
            (test_repair_in_place ~shards:1);
          Alcotest.test_case "sharded mount repaired in place" `Quick
            (test_repair_in_place ~shards:4);
        ] );
    ]
