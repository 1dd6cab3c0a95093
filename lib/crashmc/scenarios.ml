(* The crashmc scenario suite: PMFS and HiNFS workloads whose recovery
   paths must survive every legal crash image, plus deliberately buggy
   fixtures the checker must flag (so a vacuous checker fails the suite).

   Scenarios use a small (1 MB) device so mount-time recovery and fsck stay
   cheap across thousands of crash images. *)

module Engine = Hinfs_sim.Engine
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Log = Hinfs_journal.Cacheline_log
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Media = Hinfs_pmfs.Media
module Fs = Hinfs.Fs
module Fsck = Hinfs_fsck.Fsck
module Repair = Hinfs_fsck.Repair
module Fault = Hinfs_nvmm.Fault
open Crashmc

let small_config = { Config.default with nvmm_size = 1024 * 1024 }
let root = Layout.root_ino
let cat = Stats.Other

(* Deterministic per-name content. *)
let content name len =
  String.init len (fun i ->
      Char.chr (Char.code 'a' + (Hashtbl.hash (name, i) mod 26)))

let bytes_of s = Bytes.of_string s

(* --- verify functions: recovery + fsck + durability oracle --- *)

let verify_pmfs device expectations =
  let fs = Pmfs.mount device () in
  Fsck.check fs
  @ check_expectations ~read_file:(read_file (Pmfs.handle fs)) expectations

let verify_hinfs device expectations =
  let fs = Fs.mount device ~daemons:false () in
  Fsck.check (Fs.pmfs fs)
  @ check_expectations ~read_file:(read_file (Fs.handle fs)) expectations

(* The expectations of a create followed by a durable write of [data]:
   the name may be absent until [create] returns, the file is empty or
   whole until [write] does, and whole after. *)
let create_durably ctl path data ~create ~write =
  ctl.expect path (Either (Absent, Content ""));
  let ino = create () in
  ctl.expect path (Either (Content "", Content data));
  write ino;
  ctl.expect path (Exactly (Content data))

(* --- PMFS scenarios --- *)

(* The file [path] of [len] bytes, created in its directory [dir] and
   written synchronously. Returns its content. *)
let synced_file fs ctl ~dir path len =
  let name = Filename.basename path in
  let data = content name len in
  create_durably ctl path data
    ~create:(fun () -> Pmfs.create_file fs ~dir name)
    ~write:(fun ino ->
      ignore
        (Pmfs.write fs ~ino ~off:0 ~src:(bytes_of data) ~src_off:0 ~len
           ~sync:true));
  data

(* Creates and synchronous writes: every acknowledged op must be durable,
   every in-flight op atomic. *)
let pmfs_create_write =
  {
    name = "pmfs-create-write";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        let fs = Pmfs.mkfs_and_mount device ~journal_blocks:16 () in
        ignore device;
        ctl.start ();
        List.iteri
          (fun i len ->
            let name = Fmt.str "file%d" i in
            ignore (synced_file fs ctl ~dir:root ("/" ^ name) len);
            ctl.checkpoint (Fmt.str "after-%s" name))
          [ 96; 700; 4096; 6000 ]);
    verify = verify_pmfs;
  }

(* In-place overwrite: PMFS does not journal data, so a crash mid-overwrite
   may tear the range — the oracle retracts its expectation for the
   duration and fsck still has to hold on every image. *)
let pmfs_overwrite =
  {
    name = "pmfs-overwrite";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        let fs = Pmfs.mkfs_and_mount device ~journal_blocks:16 () in
        ignore device;
        let len = 5000 in
        let before = content "ow-before" len in
        let ino = Pmfs.create_file fs ~dir:root "ow" in
        ignore
          (Pmfs.write fs ~ino ~off:0 ~src:(bytes_of before) ~src_off:0 ~len
             ~sync:true);
        ctl.start ();
        ctl.expect "/ow" (Exactly (Content before));
        ctl.checkpoint "steady";
        let after = content "ow-after" len in
        ctl.retract "/ow";
        ignore
          (Pmfs.write fs ~ino ~off:0 ~src:(bytes_of after) ~src_off:0 ~len
             ~sync:true);
        ctl.expect "/ow" (Exactly (Content after));
        ctl.checkpoint "overwritten");
    verify = verify_pmfs;
  }

(* Namespace metadata: mkdir, nested creates, unlink, rename. *)
let pmfs_namespace =
  {
    name = "pmfs-namespace";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        let fs = Pmfs.mkfs_and_mount device ~journal_blocks:16 () in
        ignore device;
        ctl.start ();
        let d = Pmfs.mkdir fs ~dir:root "d" in
        let data_a = synced_file fs ctl ~dir:d "/d/a" 300 in
        let data_b = synced_file fs ctl ~dir:d "/d/b" 1200 in
        ctl.checkpoint "populated";
        ctl.expect "/d/a" (Either (Content data_a, Absent));
        Pmfs.unlink fs ~dir:d "a";
        ctl.expect "/d/a" (Exactly Absent);
        ctl.checkpoint "unlinked";
        ctl.expect "/d/b" (Either (Content data_b, Absent));
        ctl.expect "/d/c" (Either (Absent, Content data_b));
        Pmfs.rename fs ~src_dir:d ~src:"b" ~dst_dir:d ~dst:"c";
        ctl.expect "/d/b" (Exactly Absent);
        ctl.expect "/d/c" (Exactly (Content data_b));
        ctl.checkpoint "renamed");
    verify = verify_pmfs;
  }

(* A transaction left open at the crash: recovery must roll the journaled
   in-place update back (undo-log roll-back exercised end to end). *)
let pmfs_torn_txn =
  {
    name = "pmfs-torn-txn";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        let fs = Pmfs.mkfs_and_mount device ~journal_blocks:16 () in
        let len = 900 in
        let data = content "torn" len in
        let ino = Pmfs.create_file fs ~dir:root "torn" in
        ignore
          (Pmfs.write fs ~ino ~off:0 ~src:(bytes_of data) ~src_off:0 ~len
             ~sync:true);
        ctl.start ();
        ctl.expect "/torn" (Exactly (Content data));
        ctl.checkpoint "pre-txn";
        (* Journal the size field, scribble over it, persist the scribble —
           then "crash" with the transaction uncommitted. *)
        let geo = Pmfs.geometry fs in
        let log = Pmfs.log fs in
        let txn = Log.begin_txn log in
        let addr = Layout.Inode.addr geo ino + Media.Inode.size_off in
        Log.log log txn ~addr ~len:8;
        Layout.Inode.set_size device ~cat geo ino 0;
        Device.clflush device ~cat ~addr ~len:8;
        Device.mfence device ~cat);
    verify = verify_pmfs;
  }

(* --- HiNFS scenarios --- *)

(* The root file [path] of [len] bytes, written through the DRAM buffer
   and fsynced. Returns its content. *)
let fsynced_file fs ctl path len =
  let name = Filename.basename path in
  let data = content name len in
  create_durably ctl path data
    ~create:(fun () -> Pmfs.create_file (Fs.pmfs fs) ~dir:root name)
    ~write:(fun ino ->
      ignore
        (Fs.write fs ~ino ~off:0 ~src:(bytes_of data) ~src_off:0 ~len
           ~sync:false);
      Fs.fsync fs ~ino);
  data

(* Lazy-persistent writes through the DRAM buffer: nothing promised until
   fsync returns, everything promised after. *)
let hinfs_fsync =
  {
    name = "hinfs-fsync";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        let fs =
          Fs.mkfs_and_mount device ~journal_blocks:16 ~daemons:false ()
        in
        ctl.start ();
        List.iteri
          (fun i len ->
            let name = Fmt.str "h%d" i in
            ignore (fsynced_file fs ctl ("/" ^ name) len);
            ctl.checkpoint (Fmt.str "fsynced-%s" name))
          [ 800; 4500; 2000 ]);
    verify = verify_hinfs;
  }

(* Unlink with buffered dirty data (the short-lived-file path): the pending
   ordered transaction must be aborted, never half-applied. *)
let hinfs_unlink_buffered =
  {
    name = "hinfs-unlink-buffered";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        let fs =
          Fs.mkfs_and_mount device ~journal_blocks:16 ~daemons:false ()
        in
        ctl.start ();
        let pm = Fs.pmfs fs in
        (* fsynced file, then unlinked *)
        let data = fsynced_file fs ctl "/u1" 1500 in
        ctl.checkpoint "u1-fsynced";
        ctl.expect "/u1" (Either (Content data, Absent));
        Fs.unlink fs ~dir:root "u1";
        ctl.expect "/u1" (Exactly Absent);
        (* buffered-only file unlinked before any writeback (dead-block
           drop): its data must never reach the medium half-way *)
        let d2 = content "u2" 3000 in
        ctl.expect "/u2" (Either (Absent, Content ""));
        let ino2 = Pmfs.create_file pm ~dir:root "u2" in
        ctl.expect "/u2" (Either (Content "", Absent));
        ignore
          (Fs.write fs ~ino:ino2 ~off:0 ~src:(bytes_of d2) ~src_off:0
             ~len:3000 ~sync:false);
        Fs.unlink fs ~dir:root "u2";
        ctl.expect "/u2" (Exactly Absent);
        ctl.checkpoint "u2-dropped");
    verify = verify_hinfs;
  }

(* --- nvcache scenarios ---

   ext4 (ordered journal, sync mount) behind the NVMM write-cache tier.
   Every fsync'd file must survive any crash: the destage backlog lives
   only in the cache area, so mount-time replay is on the recovery path of
   every image, and the nested pass re-crashes inside the replay itself
   (poke_flushed/fence_untimed make it enumerable). Mid-scenario
   destage_all puts the batch write-back and the persistent truncation
   (head advance / entry zeroing) under enumeration too. *)

module Extfs = Hinfs_extfs.Extfs
module Nvcache = Hinfs_nvcache.Nvcache

let ext_root = 1

let verify_nvcache device expectations =
  let st =
    Nvcache.mount device ~mode:Extfs.Ext4 ~sync_mount:true ~daemons:false ()
  in
  let replay_violations =
    match Nvcache.last_recovery st with
    | Some r when r.Nvcache.rec_dropped > 0 ->
      [ Fmt.str "nvcache replay dropped %d record(s)" r.Nvcache.rec_dropped ]
    | _ -> []
  in
  replay_violations
  @ check_expectations
      ~read_file:(read_file (Nvcache.handle st))
      expectations

let nvcache_scenario ~name ~design =
  {
    name;
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        let st =
          Nvcache.mkfs_and_mount device ~design ~mode:Extfs.Ext4
            ~journal_blocks:16 ~sync_mount:true ~daemons:false ()
        in
        let fs = Nvcache.fs st in
        let cache = Nvcache.cache st in
        ctl.start ();
        (* The oracle is armed only across the create+write window's end:
           until fsync returns nothing is promised (retracted), after it
           the exact content is. *)
        let write_file name len =
          let data = content name len in
          ctl.retract ("/" ^ name);
          let ino = Extfs.create_file fs ~dir:ext_root name in
          ignore
            (Extfs.write fs ~ino ~off:0 ~src:(bytes_of data) ~src_off:0 ~len
               ~sync:true);
          Extfs.fsync fs ~ino;
          ctl.expect ("/" ^ name) (Exactly (Content data));
          (ino, data)
        in
        let ino0, d0 = write_file "n0" 1000 in
        ctl.checkpoint "n0-fsynced";
        ignore (write_file "n1" 3500);
        ctl.checkpoint "n1-fsynced";
        (* Drain under enumeration: crash points inside the batch
           write-back and the persistent truncation. *)
        Nvcache.destage_all cache;
        ctl.checkpoint "destaged";
        (* Overwrite an fsync'd single-block file: any crash image shows
           the old or the new bytes, never a torn mix (record/slot CRC
           cuts the replay prefix before a partial version applies). *)
        let d0' = content "n0-v2" 1000 in
        ctl.expect "/n0" (Either (Content d0, Content d0'));
        ignore
          (Extfs.write fs ~ino:ino0 ~off:0 ~src:(bytes_of d0') ~src_off:0
             ~len:1000 ~sync:true);
        Extfs.fsync fs ~ino:ino0;
        ctl.expect "/n0" (Exactly (Content d0'));
        ctl.checkpoint "n0-overwritten";
        (* Left in the backlog at the final crash: replay must carry it. *)
        ignore (write_file "n2" 2200);
        ctl.checkpoint "n2-fsynced");
    verify = verify_nvcache;
  }

let nvlog_fsync_destage =
  nvcache_scenario ~name:"nvlog-fsync-destage" ~design:Nvcache.Logging

let nvpage_fsync_destage =
  nvcache_scenario ~name:"nvpage-fsync-destage" ~design:Nvcache.Paging

(* --- known-bad fixtures (checker self-tests) --- *)

let fixture_payload = content "fixture" 64
let fixture_data_addr = 4096
let fixture_flag_addr = 8192
let fixture_flag = 0xAB

let fixture_verify device _expectations =
  let flag =
    Bytes.get_uint8
      (Device.peek_persistent device ~addr:fixture_flag_addr ~len:1)
      0
  in
  if flag = fixture_flag then begin
    let data =
      Device.peek_persistent device ~addr:fixture_data_addr
        ~len:(String.length fixture_payload)
    in
    if Bytes.to_string data <> fixture_payload then
      [ "commit flag persisted before its payload" ]
    else []
  end
  else []

(* The bug: the payload is never flushed before the commit flag is flushed
   and fenced, so a legal crash image has the flag set over stale data.
   Crashmc must find it (expect_violation = true). *)
let fixture_missing_fence =
  {
    name = "fixture-missing-fence";
    config = small_config;
    expect_violation = true;
    run =
      (fun device ctl ->
        ctl.start ();
        Device.write_cached device ~cat ~addr:fixture_data_addr
          ~src:(bytes_of fixture_payload) ~off:0
          ~len:(String.length fixture_payload);
        (* BUG: no clflush of the payload, no ordering fence *)
        let flag = Bytes.make 1 (Char.chr fixture_flag) in
        Device.write_cached device ~cat ~addr:fixture_flag_addr ~src:flag
          ~off:0 ~len:1;
        Device.clflush device ~cat ~addr:fixture_flag_addr ~len:1;
        Device.mfence device ~cat);
    verify = fixture_verify;
  }

(* The same protocol done right: payload flushed and fenced before the
   flag. No crash image may show the flag without the payload. *)
let fixture_correct_fence =
  {
    name = "fixture-correct-fence";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        ctl.start ();
        Device.write_cached device ~cat ~addr:fixture_data_addr
          ~src:(bytes_of fixture_payload) ~off:0
          ~len:(String.length fixture_payload);
        Device.clflush device ~cat ~addr:fixture_data_addr
          ~len:(String.length fixture_payload);
        Device.mfence device ~cat;
        let flag = Bytes.make 1 (Char.chr fixture_flag) in
        Device.write_cached device ~cat ~addr:fixture_flag_addr ~src:flag
          ~off:0 ~len:1;
        Device.clflush device ~cat ~addr:fixture_flag_addr ~len:1;
        Device.mfence device ~cat);
    verify = fixture_verify;
  }

(* Deliberately *non-idempotent* recovery: a recovery step that is only
   correct if it runs exactly once. The workload persists a counter and a
   "recovery needed" marker; the fixture's verify plays recovery by
   incrementing the counter (a relative update — the bug) before clearing
   the marker, with a fence between the two. On any single crash image this
   is invisible: verify runs once and the counter lands on the expected
   value. Only the nested enumeration catches it — a re-crash after the
   increment's fence but before the marker clear leaves both the
   incremented counter and the marker, so the second recovery increments
   again. This is the vacuity check for crash-during-recovery coverage:
   without [recrash_checks] the fixture is reported as missed. *)
let nonid_counter_addr = 4096
let nonid_marker_addr = 4096 + 64 (* separate cacheline *)
let nonid_base = 7

let fixture_nonidempotent_recovery =
  {
    name = "fixture-nonidempotent-recovery";
    config = small_config;
    expect_violation = true;
    run =
      (fun device ctl ->
        ctl.start ();
        let b = Bytes.make 1 (Char.chr nonid_base) in
        Device.write_cached device ~cat ~addr:nonid_counter_addr ~src:b ~off:0
          ~len:1;
        Device.clflush device ~cat ~addr:nonid_counter_addr ~len:1;
        let m = Bytes.make 1 '\001' in
        Device.write_cached device ~cat ~addr:nonid_marker_addr ~src:m ~off:0
          ~len:1;
        Device.clflush device ~cat ~addr:nonid_marker_addr ~len:1;
        Device.mfence device ~cat);
    verify =
      (fun device _expectations ->
        let peek addr =
          Bytes.get_uint8 (Device.peek_persistent device ~addr ~len:1) 0
        in
        let poke addr v =
          Device.poke_flushed device ~addr
            ~src:(Bytes.make 1 (Char.chr v))
            ~off:0 ~len:1;
          Device.fence_untimed device
        in
        (if peek nonid_marker_addr = 1 then begin
           (* BUG: relative update ordered before the marker clear — not
              idempotent if recovery itself is interrupted in between. *)
           poke nonid_counter_addr (peek nonid_counter_addr + 1);
           poke nonid_marker_addr 0
         end);
        let counter = peek nonid_counter_addr in
        if counter > nonid_base + 1 then
          [
            Fmt.str
              "non-idempotent recovery replay: counter %d (max legal %d)"
              counter (nonid_base + 1);
          ]
        else []);
  }

(* --- cowfs scenarios: whole-image digest oracle ---

   The CoW substrate promises more than per-path durability: every legal
   crash image must mount and bit-match some state the workload actually
   committed — the fenced root-descriptor swap is the only publication
   point, so there is no in-between. The scenario [run] records
   [Cowfs.state_digest] after mkfs and after every completed operation
   (each op ends in a root swap); [verify] mounts the image (a mount
   failure is itself a violation), recomputes the digest, and requires
   membership in the recorded set plus a clean CoW fsck (refcounts,
   reachability, namespace). *)

module Cowfs = Hinfs_pmfs.Cowfs
module Faultops = Hinfs_nvmm.Faultops
module Errno = Hinfs_vfs.Errno

(* The digest set is per-scenario: [run] resets it, and run_scenario
   verifies a scenario's images before the next scenario runs. *)
let cow_digests : (string, unit) Hashtbl.t = Hashtbl.create 64
let cow_record fs = Hashtbl.replace cow_digests (Cowfs.state_digest fs) ()

let verify_cow device _expectations =
  match Cowfs.mount device () with
  | exception e -> [ Fmt.str "cow mount failed: %s" (Printexc.to_string e) ]
  | fs ->
    let d = Cowfs.state_digest fs in
    (if Hashtbl.mem cow_digests d then []
     else
       [
         Fmt.str
           "cow image digest %s.. matches none of the %d committed states"
           (String.sub d 0 (min 12 (String.length d)))
           (Hashtbl.length cow_digests);
       ])
    @ Fsck.cow_violations fs

let cow_write fs ~ino name len =
  let data = content name len in
  ignore
    (Cowfs.write fs ~ino ~off:0 ~src:(bytes_of data) ~src_off:0 ~len
       ~sync:true)

(* Plain ops, snapshot, divergence, rollback, clone, snapshot GC: the
   full snapshot lifecycle under crash enumeration. *)
let cow_commit_snapshots =
  {
    name = "cow-commit-snapshots";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        Hashtbl.reset cow_digests;
        let fs = Cowfs.mkfs_and_mount device () in
        cow_record fs;
        ctl.start ();
        let a = Cowfs.create_file fs ~dir:Cowfs.root_ino "a" in
        cow_record fs;
        cow_write fs ~ino:a "a-v1" 900;
        cow_record fs;
        ctl.checkpoint "a-written";
        let snap = Cowfs.snapshot fs in
        cow_record fs;
        ctl.checkpoint "snapshotted";
        cow_write fs ~ino:a "a-v2" 1400;
        cow_record fs;
        Cowfs.unlink fs ~dir:Cowfs.root_ino "a";
        cow_record fs;
        ctl.checkpoint "diverged";
        Cowfs.rollback fs ~snap_id:snap;
        cow_record fs;
        ctl.checkpoint "rolled-back";
        let dup = Cowfs.clone fs ~snap_id:snap in
        cow_record fs;
        Cowfs.snapshot_delete fs ~snap_id:snap;
        cow_record fs;
        Cowfs.snapshot_delete fs ~snap_id:dup;
        cow_record fs;
        ctl.checkpoint "snapshots-gone");
    verify = verify_cow;
  }

(* Whole-FS transactions: a committed txn's files and directory appear
   atomically at txn_commit's single root swap (no crash image shows a
   strict subset), and an aborted txn is invisible in every image. *)
let cow_txn_multifile =
  {
    name = "cow-txn-multifile";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        Hashtbl.reset cow_digests;
        let fs = Cowfs.mkfs_and_mount device () in
        cow_record fs;
        ctl.start ();
        let base = Cowfs.create_file fs ~dir:Cowfs.root_ino "base" in
        cow_record fs;
        cow_write fs ~ino:base "base" 600;
        cow_record fs;
        ctl.checkpoint "pre-txn";
        Cowfs.txn_begin fs;
        let d = Cowfs.mkdir fs ~dir:Cowfs.root_ino "txn" in
        List.iter
          (fun (name, len) ->
            let ino = Cowfs.create_file fs ~dir:d name in
            cow_write fs ~ino name len)
          [ ("t0", 300); ("t1", 2500); ("t2", 1200) ];
        Cowfs.txn_commit fs;
        cow_record fs;
        ctl.checkpoint "txn-committed";
        Cowfs.txn_begin fs;
        let doomed = Cowfs.create_file fs ~dir:d "doomed" in
        cow_write fs ~ino:doomed "doomed" 2000;
        Cowfs.unlink fs ~dir:Cowfs.root_ino "base";
        Cowfs.txn_abort fs;
        cow_record fs;
        ctl.checkpoint "txn-aborted");
    verify = verify_cow;
  }

(* Mid-op failures through the commit path: a forced block-allocation
   failure inside an overwrite and an injected fault at the head of
   commit itself must both abort net-zero — same free-block count, same
   committed digest — and every crash image of the aborted windows must
   still mount to a recorded state. *)
let cow_enospc_abort =
  {
    name = "cow-enospc-abort";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        Hashtbl.reset cow_digests;
        let fs = Cowfs.mkfs_and_mount device () in
        cow_record fs;
        ctl.start ();
        let ino = Cowfs.create_file fs ~dir:Cowfs.root_ino "victim" in
        cow_record fs;
        cow_write fs ~ino "victim-v1" 5000;
        cow_record fs;
        ctl.checkpoint "steady";
        let free0 = Cowfs.free_data_blocks fs in
        let digest0 = Cowfs.state_digest fs in
        let fo = Faultops.create ~seed:7L () in
        Cowfs.attach_faultops fs (Some fo);
        Faultops.force fo Faultops.Block_alloc ~after:2;
        (match
           Cowfs.write fs ~ino ~off:0
             ~src:(bytes_of (content "victim-v2" 9000))
             ~src_off:0 ~len:9000 ~sync:true
         with
        | _ -> failwith "cow-enospc-abort: forced allocation did not fail"
        | exception Errno.Fs_error (Errno.ENOSPC, _) -> ());
        Cowfs.attach_faultops fs None;
        if Cowfs.free_data_blocks fs <> free0 then
          failwith "cow-enospc-abort: aborted op leaked blocks";
        if Cowfs.state_digest fs <> digest0 then
          failwith "cow-enospc-abort: aborted op changed committed state";
        ctl.checkpoint "enospc-aborted";
        let armed = ref true in
        Cowfs.set_commit_fault fs
          (Some
             (fun () ->
               if !armed then begin
                 armed := false;
                 true
               end
               else false));
        (match
           Cowfs.write fs ~ino ~off:0
             ~src:(bytes_of (content "victim-v3" 4000))
             ~src_off:0 ~len:4000 ~sync:true
         with
        | _ -> failwith "cow-enospc-abort: forced commit fault did not fail"
        | exception Errno.Fs_error (Errno.EIO, _) -> ());
        Cowfs.set_commit_fault fs None;
        if Cowfs.state_digest fs <> digest0 then
          failwith "cow-enospc-abort: failed commit changed committed state";
        ctl.checkpoint "commit-fault-aborted";
        cow_write fs ~ino "victim-v2" 9000;
        cow_record fs;
        ctl.checkpoint "retried");
    verify = verify_cow;
  }

(* --- cross-shard rename: the epoch commit under crash enumeration ---

   Two directories in different shards; renaming between them spans two
   journals and commits through the epoch record. The oracle is
   [exactly_one], a correlation per-path expectations cannot express: at
   EVERY crash image (and every recovery re-crash) the file must be
   reachable at exactly one of its two names — src XOR dst — with its
   content intact. Both-present means the destination's add committed
   without the source's remove; neither means the reverse. The epoch
   record makes the pair atomic, so the invariant holds across the whole
   scenario. *)

let xshard_content = content "xshard" 700

let verify_xshard device _expectations =
  let fs = Pmfs.mount device () in
  Fsck.check fs
  @ exactly_one
      ~read_file:(read_file (Pmfs.handle fs))
      ("/da/f", "/db/g") (Content xshard_content)

(* Shared setup: a 2-shard image, one directory in each shard (round-robin
   placement gives mkdir #1 shard 0 and mkdir #2 shard 1), and the file
   durably written before enumeration starts. *)
let xshard_setup device =
  let fs = Pmfs.mkfs_and_mount device ~journal_blocks:32 ~shards:2 () in
  let da = Pmfs.mkdir fs ~dir:root "da" in
  let db = Pmfs.mkdir fs ~dir:root "db" in
  if Pmfs.shard_of_ino fs da = Pmfs.shard_of_ino fs db then
    failwith "xshard setup: directories landed in the same shard";
  let ino = Pmfs.create_file fs ~dir:da "f" in
  ignore
    (Pmfs.write fs ~ino ~off:0 ~src:(bytes_of xshard_content) ~src_off:0
       ~len:(String.length xshard_content) ~sync:true);
  (fs, da, db)

let pmfs_rename_cross_shard =
  {
    name = "pmfs-rename-cross-shard";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        let fs, da, db = xshard_setup device in
        ctl.start ();
        ctl.checkpoint "pre-rename";
        Pmfs.rename fs ~src_dir:da ~src:"f" ~dst_dir:db ~dst:"g";
        ctl.checkpoint "renamed";
        Pmfs.rename fs ~src_dir:db ~src:"g" ~dst_dir:da ~dst:"f";
        ctl.checkpoint "renamed-back");
    verify = verify_xshard;
  }

(* Deliberately broken cross-shard rename: the epoch protocol is skipped
   and the two participating transactions commit independently, one
   journal fence apart. A crash between the two commits recovers with the
   destination's add durable and the source's remove rolled back (file at
   both names) — or the reverse, depending on order. Crashmc must flag
   it: the vacuity check for the epoch-commit oracle. *)
let fixture_skip_epoch_commit =
  {
    name = "fixture-skip-epoch-commit";
    config = small_config;
    expect_violation = true;
    run =
      (fun device ctl ->
        let fs, da, db = xshard_setup device in
        ctl.start ();
        Pmfs.set_sabotage_skip_epoch true;
        Fun.protect
          ~finally:(fun () -> Pmfs.set_sabotage_skip_epoch false)
          (fun () ->
            Pmfs.rename fs ~src_dir:da ~src:"f" ~dst_dir:db ~dst:"g");
        ctl.checkpoint "sabotaged-rename");
    verify = verify_xshard;
  }

(* Deliberately broken commit: the payload fence before the root swap is
   skipped, so the new descriptor races its own shadow payload inside one
   fence window. A legal crash image can then publish a root whose trees
   are stale or half-written — failing the digest/fsck oracle (or failing
   to mount coherently). Crashmc must flag it: the vacuity check for the
   whole-image oracle. *)
let fixture_torn_root_swap =
  {
    name = "fixture-torn-root-swap";
    config = small_config;
    expect_violation = true;
    run =
      (fun device ctl ->
        Hashtbl.reset cow_digests;
        let fs = Cowfs.mkfs_and_mount device () in
        cow_record fs;
        let ino = Cowfs.create_file fs ~dir:Cowfs.root_ino "t" in
        cow_write fs ~ino "torn-v1" 3000;
        cow_record fs;
        ctl.start ();
        Cowfs.set_sabotage_torn_root fs true;
        cow_write fs ~ino "torn-v2" 3000;
        cow_record fs;
        ctl.checkpoint "torn-commit");
    verify = verify_cow;
  }

(* --- per-shard fault domain: crash during online repair ---

   A 4-shard image with one durable file per shard; the victim shard's
   journal sub-region is poisoned, the shard is degraded, and a full
   repair pass runs in place to re-admission with crash enumeration armed.
   Repair writes go through the untimed reliable-store path, so the
   enumerated states include mid-repair images (journal partially
   re-replayed and wiped, epoch record re-persisted, scrub zeroes landed):
   every one must mount, pass fsck, and preserve all four durable files. *)
let pmfs_shard_repair =
  {
    name = "pmfs-shard-repair";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        let fs = Pmfs.mkfs_and_mount device ~journal_blocks:32 ~shards:4 () in
        let dir_of = Array.make 4 None in
        for i = 0 to 15 do
          let name = Fmt.str "s%d" i in
          let ino = Pmfs.mkdir fs ~dir:root name in
          let s = Pmfs.shard_of_ino fs ino in
          if dir_of.(s) = None then dir_of.(s) <- Some (name, ino)
        done;
        let files =
          Array.map
            (fun d ->
              let dname, dino = Option.get d in
              let data = content dname 900 in
              let ino = Pmfs.create_file fs ~dir:dino "f" in
              ignore
                (Pmfs.write fs ~ino ~off:0 ~src:(bytes_of data) ~src_off:0
                   ~len:(String.length data) ~sync:true);
              ("/" ^ dname ^ "/f", data))
            dir_of
        in
        let fault = Fault.create ~seed:77L () in
        Device.set_fault_model device (Some fault);
        ctl.start ();
        Array.iter
          (fun (path, data) -> ctl.expect path (Exactly (Content data)))
          files;
        ctl.checkpoint "pre-fault";
        let victim = 1 in
        let geo = Pmfs.geometry fs in
        let bs = geo.Hinfs_pmfs.Layout.block_size in
        let ls = (Device.config device).Config.cacheline_size in
        let first_block, blocks =
          Layout.journal_region geo victim
        in
        let total_lines = blocks * bs / ls in
        for k = 0 to 3 do
          Fault.poison_line fault
            ((first_block * bs / ls) + (k * total_lines / 4))
        done;
        Pmfs.degrade_shard fs victim "scenario: poisoned shard journal";
        let repaired, failed = Repair.run_once fs in
        if repaired <> 1 || failed <> 0 then
          failwith "shard repair pass did not re-admit the victim";
        if not (Pmfs.fully_healthy fs) then
          failwith "victim shard not healthy after repair";
        ctl.checkpoint "repaired");
    verify = verify_pmfs;
  }

(* --- served COMMIT durability: the NFS-style contract under crash ---

   A small PMFS served through lib/server: a synchronous client drives
   CREATE / unstable WRITE / COMMIT / stable WRITE / REMOVE through the
   full codec + session + handle-table + open-file-cache path, with
   crash enumeration armed across every request. The oracle follows the
   protocol's promise exactly: between an unstable WRITE and its COMMIT
   ack nothing is promised (the server may have placed any part of the
   data), but once COMMIT — or a FILE_SYNC write — is acknowledged the
   bytes must appear in every legal crash image. *)

module Server = Hinfs_server.Server
module Wire = Hinfs_server.Wire
module Ofcache = Hinfs_server.Ofcache

let serve_blk = 512

let serve_content tag nblocks =
  String.init (nblocks * serve_blk) (fun i ->
      Char.chr (Char.code 'a' + (Hashtbl.hash (tag, i / 16) mod 26)))

let pmfs_serve_commit =
  {
    name = "pmfs-serve-commit";
    config = small_config;
    expect_violation = false;
    run =
      (fun device ctl ->
        let fs = Pmfs.mkfs_and_mount device ~journal_blocks:16 () in
        let srv =
          Server.create ~workers:2 ~cache_cap:4 (Device.engine device)
            (Pmfs.handle fs)
        in
        Server.start srv;
        let sid = Server.establish srv in
        let rpc req =
          match Server.rpc srv ~sid req with
          | Wire.R_err e ->
            Errno.raise_error e "serve scenario: %s failed" (Wire.req_name req)
          | reply -> reply
        in
        ctl.start ();
        (* CREATE is journaled metadata: durable once acknowledged. *)
        ctl.expect "/f" (Either (Absent, Content ""));
        let fh =
          match rpc (Wire.Create "/f") with
          | Wire.R_handle (fh, _) -> fh
          | _ -> failwith "serve scenario: unexpected CREATE reply"
        in
        ctl.expect "/f" (Exactly (Content ""));
        ctl.checkpoint "created";
        (* Two unstable WRITEs: nothing promised until COMMIT returns. *)
        let d2 = serve_content "f-v1" 2 in
        ctl.retract "/f";
        ignore (rpc (Wire.Write (fh, 0, String.sub d2 0 serve_blk, false)));
        ignore
          (rpc (Wire.Write (fh, serve_blk, String.sub d2 serve_blk serve_blk,
                            false)));
        (match rpc (Wire.Commit fh) with
        | Wire.R_ok _ -> ()
        | _ -> failwith "serve scenario: unexpected COMMIT reply");
        ctl.expect "/f" (Exactly (Content d2));
        ctl.checkpoint "committed";
        (* A stable (FILE_SYNC) append: durable at the WRITE ack itself. *)
        let d3 = serve_content "f-v2" 1 in
        ctl.retract "/f";
        ignore (rpc (Wire.Write (fh, 2 * serve_blk, d3, true)));
        ctl.expect "/f" (Exactly (Content (d2 ^ d3)));
        ctl.checkpoint "stable-written";
        (* REMOVE drops the cached open and stales the handle before the
           unlink; the lapsed handle must be answered with ESTALE, never
           stale data. *)
        ctl.expect "/f" (Either (Content (d2 ^ d3), Absent));
        (match rpc (Wire.Remove "/f") with
        | Wire.R_ok _ -> ()
        | _ -> failwith "serve scenario: unexpected REMOVE reply");
        ctl.expect "/f" (Exactly Absent);
        ctl.checkpoint "removed";
        (match Server.rpc srv ~sid (Wire.Getattr fh) with
        | Wire.R_err Errno.ESTALE -> ()
        | _ -> failwith "serve scenario: removed handle not ESTALE");
        Ofcache.drop_all (Server.cache srv);
        Server.stop srv);
    verify = verify_pmfs;
  }

let all =
  [
    pmfs_create_write;
    pmfs_overwrite;
    pmfs_namespace;
    pmfs_torn_txn;
    pmfs_rename_cross_shard;
    pmfs_shard_repair;
    pmfs_serve_commit;
    hinfs_fsync;
    hinfs_unlink_buffered;
    nvlog_fsync_destage;
    nvpage_fsync_destage;
    cow_commit_snapshots;
    cow_txn_multifile;
    cow_enospc_abort;
    fixture_missing_fence;
    fixture_correct_fence;
    fixture_nonidempotent_recovery;
    fixture_torn_root_swap;
    fixture_skip_epoch_commit;
  ]

let by_name name = List.find_opt (fun s -> s.name = name) all
let names = List.map (fun s -> s.name) all
