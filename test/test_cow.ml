(* CoW substrate unit tests: mkfs/mount/remount persistence, the
   snapshot/clone/rollback/delete lifecycle with refcount GC, whole-FS
   transactions held to the crash-image standard (a device image taken
   mid-transaction mounts to the pre-transaction state, bit for bit),
   abort paths proven net-zero under injected allocation and commit
   faults, newest-root-slot poison fallback with repair, and fsck
   vacuity (a corrupted refcount really is flagged). *)

module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Fault = Hinfs_nvmm.Fault
module Faultops = Hinfs_nvmm.Faultops
module Cowfs = Hinfs_pmfs.Cowfs
module Media = Hinfs_pmfs.Media
module Errno = Hinfs_vfs.Errno
module Types = Hinfs_vfs.Types
module Vfs = Hinfs_vfs.Vfs
module Fsck = Hinfs_fsck.Fsck

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let root = Cowfs.root_ino

let wr fs ~ino data =
  ignore
    (Cowfs.write fs ~ino ~off:0 ~src:data ~src_off:0 ~len:(Bytes.length data)
       ~sync:true)

let rd fs ~ino len =
  let buf = Bytes.create len in
  let n = Cowfs.read fs ~ino ~off:0 ~len ~into:buf ~into_off:0 in
  Bytes.sub buf 0 n

let fsck_clean msg fs =
  let r = Fsck.check_cow fs in
  if not (Fsck.ok r) then Alcotest.failf "%s: %a" msg Fsck.pp_report r

(* --- basic persistence --- *)

let test_persistence () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs = Cowfs.mkfs_and_mount device () in
      let d = Cowfs.mkdir fs ~dir:root "d" in
      let a = Cowfs.create_file fs ~dir:d "a" in
      let pay = Testkit.pattern_bytes ~seed:1 5000 in
      wr fs ~ino:a pay;
      Testkit.check_bytes "read back" pay (rd fs ~ino:a 5000);
      fsck_clean "live mount" fs;
      Cowfs.unmount fs;
      let fs = Cowfs.mount device () in
      let d = Option.get (Cowfs.lookup fs ~dir:root "d") in
      let a = Option.get (Cowfs.lookup fs ~dir:d "a") in
      Testkit.check_bytes "after remount" pay (rd fs ~ino:a 5000);
      fsck_clean "remount" fs;
      Cowfs.truncate fs ~ino:a ~size:100;
      Testkit.check_bytes "truncated tail" (Bytes.sub pay 0 100) (rd fs ~ino:a 5000);
      Cowfs.rename fs ~src_dir:d ~src:"a" ~dst_dir:root ~dst:"a2";
      check_bool "rename moved" true (Cowfs.lookup fs ~dir:root "a2" <> None);
      Cowfs.unlink fs ~dir:root "a2";
      Cowfs.rmdir fs ~dir:root "d";
      check_int "namespace empty" 0 (List.length (Cowfs.readdir fs ~dir:root));
      fsck_clean "after teardown" fs)

let test_mount_blank_device () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      match Cowfs.mount device () with
      | _ -> Alcotest.fail "mount on a blank device must fail"
      | exception Errno.Fs_error (Errno.EINVAL, _) -> ())

(* --- snapshot lifecycle --- *)

let test_snapshot_lifecycle () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs = Cowfs.mkfs_and_mount device () in
      let a = Cowfs.create_file fs ~dir:root "a" in
      let v1 = Testkit.pattern_bytes ~seed:2 3000 in
      wr fs ~ino:a v1;
      let base_used = Cowfs.used_blocks fs in
      let s1 = Cowfs.snapshot fs in
      (* Diverge the working tree from the pinned snapshot. *)
      let v2 = Testkit.pattern_bytes ~seed:3 6000 in
      wr fs ~ino:a v2;
      ignore (Cowfs.create_file fs ~dir:root "b");
      fsck_clean "diverged" fs;
      check_bool "snapshot listed" true (List.mem_assoc s1 (Cowfs.snapshots fs));
      let s2 = Cowfs.clone fs ~snap_id:s1 in
      check_int "two snapshots live" 2 (List.length (Cowfs.snapshots fs));
      Cowfs.rollback fs ~snap_id:s1;
      let a = Option.get (Cowfs.lookup fs ~dir:root "a") in
      Testkit.check_bytes "rollback restored v1" v1 (rd fs ~ino:a 6000);
      check_bool "post-snapshot file gone" true
        (Cowfs.lookup fs ~dir:root "b" = None);
      fsck_clean "after rollback" fs;
      Cowfs.snapshot_delete fs ~snap_id:s1;
      Cowfs.snapshot_delete fs ~snap_id:s2;
      check_int "no snapshots left" 0 (List.length (Cowfs.snapshots fs));
      fsck_clean "after snapshot gc" fs;
      (* GC handed every divergence block back: same footprint as before
         the snapshot was taken. *)
      check_int "blocks reclaimed" base_used (Cowfs.used_blocks fs))

let test_snapshot_inside_txn_rejected () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs = Cowfs.mkfs_and_mount device () in
      Cowfs.txn_begin fs;
      (match Cowfs.snapshot fs with
      | _ -> Alcotest.fail "snapshot inside a transaction must fail"
      | exception Errno.Fs_error (Errno.EINVAL, _) -> ());
      Cowfs.txn_abort fs;
      fsck_clean "after rejected snapshot" fs)

(* --- whole-FS transactions --- *)

(* The atomicity claim held to the crash-image standard: a raw device
   image captured mid-transaction mounts to exactly the pre-transaction
   committed state, and one captured after commit mounts to exactly the
   post-transaction state. *)
let test_txn_crash_image_atomicity () =
  let image_mid, image_post, digest_pre, digest_post =
    Testkit.run_sim (fun engine ->
        let device = Testkit.make_device engine in
        let fs = Cowfs.mkfs_and_mount device () in
        let a = Cowfs.create_file fs ~dir:root "a" in
        wr fs ~ino:a (Testkit.pattern_bytes ~seed:4 2000);
        let digest_pre = Cowfs.state_digest fs in
        Cowfs.txn_begin fs;
        let b = Cowfs.create_file fs ~dir:root "b" in
        wr fs ~ino:b (Testkit.pattern_bytes ~seed:5 4000);
        Cowfs.unlink fs ~dir:root "a";
        let image_mid = Device.snapshot device in
        Cowfs.txn_commit fs;
        let digest_post = Cowfs.state_digest fs in
        (image_mid, Device.snapshot device, digest_pre, digest_post))
  in
  Testkit.run_sim (fun engine ->
      let d =
        Device.of_snapshot engine (Stats.create ()) Testkit.small_config
          image_mid
      in
      let fs = Cowfs.mount d () in
      Alcotest.(check string)
        "mid-txn image mounts to pre-txn state" digest_pre
        (Cowfs.state_digest fs);
      fsck_clean "mid-txn image" fs);
  Testkit.run_sim (fun engine ->
      let d =
        Device.of_snapshot engine (Stats.create ()) Testkit.small_config
          image_post
      in
      let fs = Cowfs.mount d () in
      Alcotest.(check string)
        "post-commit image mounts to post-txn state" digest_post
        (Cowfs.state_digest fs);
      check_bool "txn file present" true (Cowfs.lookup fs ~dir:root "b" <> None);
      check_bool "unlinked file gone" true (Cowfs.lookup fs ~dir:root "a" = None);
      fsck_clean "post-commit image" fs)

let test_txn_abort_net_zero () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs = Cowfs.mkfs_and_mount device () in
      let a = Cowfs.create_file fs ~dir:root "a" in
      wr fs ~ino:a (Testkit.pattern_bytes ~seed:6 1500);
      let digest0 = Cowfs.state_digest fs in
      let free0 = Cowfs.free_data_blocks fs in
      Cowfs.txn_begin fs;
      let c = Cowfs.create_file fs ~dir:root "doomed" in
      wr fs ~ino:c (Testkit.pattern_bytes ~seed:7 3000);
      Cowfs.unlink fs ~dir:root "a";
      Cowfs.txn_abort fs;
      Alcotest.(check string) "state unchanged" digest0 (Cowfs.state_digest fs);
      check_int "blocks returned" free0 (Cowfs.free_data_blocks fs);
      check_bool "doomed file gone" true
        (Cowfs.lookup fs ~dir:root "doomed" = None);
      check_bool "unlink rolled back" true
        (Cowfs.lookup fs ~dir:root "a" <> None);
      fsck_clean "after abort" fs)

(* --- abort paths under injected faults --- *)

let test_enospc_abort_net_zero () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs = Cowfs.mkfs_and_mount device () in
      let a = Cowfs.create_file fs ~dir:root "a" in
      wr fs ~ino:a (Testkit.pattern_bytes ~seed:8 4000);
      let digest0 = Cowfs.state_digest fs in
      let free0 = Cowfs.free_data_blocks fs in
      let fo = Faultops.create ~seed:11L () in
      Cowfs.attach_faultops fs (Some fo);
      Faultops.force fo Faultops.Block_alloc ~after:1;
      (match wr fs ~ino:a (Testkit.pattern_bytes ~seed:9 8000) with
      | () -> Alcotest.fail "write under forced allocation fault must ENOSPC"
      | exception Errno.Fs_error (Errno.ENOSPC, _) -> ());
      Cowfs.attach_faultops fs None;
      Alcotest.(check string) "failed write is net-zero" digest0
        (Cowfs.state_digest fs);
      check_int "no blocks lost" free0 (Cowfs.free_data_blocks fs);
      fsck_clean "after enospc abort" fs;
      (* The same write goes through once the fault is gone. *)
      let v2 = Testkit.pattern_bytes ~seed:9 8000 in
      wr fs ~ino:a v2;
      Testkit.check_bytes "retry succeeded" v2 (rd fs ~ino:a 8000))

let test_commit_fault_abort_net_zero () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs = Cowfs.mkfs_and_mount device () in
      let a = Cowfs.create_file fs ~dir:root "a" in
      wr fs ~ino:a (Testkit.pattern_bytes ~seed:10 2000);
      let digest0 = Cowfs.state_digest fs in
      let commits0 = Cowfs.commits fs in
      (* One-shot fault at the head of the commit path, before any fence
         or root swap: the whole operation must unwind to nothing. *)
      let armed = ref true in
      Cowfs.set_commit_fault fs
        (Some (fun () -> if !armed then (armed := false; true) else false));
      (match wr fs ~ino:a (Testkit.pattern_bytes ~seed:11 2500) with
      | () -> Alcotest.fail "write under commit fault must EIO"
      | exception Errno.Fs_error (Errno.EIO, _) -> ());
      Cowfs.set_commit_fault fs None;
      Alcotest.(check string) "aborted commit is net-zero" digest0
        (Cowfs.state_digest fs);
      check_int "no commit counted" commits0 (Cowfs.commits fs);
      check_int "window fully retired" 0 (Cowfs.shadow_count fs);
      fsck_clean "after commit-fault abort" fs;
      let v2 = Testkit.pattern_bytes ~seed:11 2500 in
      wr fs ~ino:a v2;
      Testkit.check_bytes "retry succeeded" v2 (rd fs ~ino:a 2500))

(* --- root-slot poison fallback --- *)

let test_root_slot_poison_fallback () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs = Cowfs.mkfs_and_mount device () in
      let a = Cowfs.create_file fs ~dir:root "a" in
      wr fs ~ino:a (Testkit.pattern_bytes ~seed:12 1000);
      let digest_prev = Cowfs.state_digest fs in
      wr fs ~ino:a (Testkit.pattern_bytes ~seed:13 2000);
      let seq = Cowfs.committed_seq fs in
      Cowfs.unmount fs;
      (* Strike the newest root slot (slot [seq land 1], one cacheline at
         the head of the device): mount must fall back to the previous
         committed root and repair the struck slot in place. *)
      let fault = Fault.create ~seed:17L () in
      Device.set_fault_model device (Some fault);
      let newest_line = Int64.to_int seq land 1 in
      Fault.poison_line fault newest_line;
      let fs = Cowfs.mount device () in
      Alcotest.(check int64)
        "fell back to the previous committed root" (Int64.pred seq)
        (Cowfs.committed_seq fs);
      Alcotest.(check string) "previous state restored, bit for bit"
        digest_prev (Cowfs.state_digest fs);
      check_bool "struck slot repaired on load" false
        (Fault.is_poisoned fault newest_line);
      fsck_clean "after fallback" fs)

(* --- transient read faults --- *)

(* Every clean-line load faults once; the data path's bounded retry
   consumes the pending transient and the read returns the true bytes
   instead of EIO. A load stops at its first faulting line, so each retry
   clears one line: the read spans two lines, within the three-retry
   budget of [Device.read_retrying]. *)
let test_transient_read_retried () =
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let device = Testkit.make_device ~stats engine in
      let fs = Cowfs.mkfs_and_mount device () in
      let a = Cowfs.create_file fs ~dir:root "a" in
      let pay = Testkit.pattern_bytes ~seed:21 5000 in
      wr fs ~ino:a pay;
      Device.set_fault_model device
        (Some (Fault.create ~transient_rate:1.0 ~seed:23L ()));
      let buf = Bytes.create 128 in
      (match Cowfs.read fs ~ino:a ~off:0 ~len:128 ~into:buf ~into_off:0 with
      | n ->
        check_int "bytes read" 128 n;
        Testkit.check_bytes "true data after retries" (Bytes.sub pay 0 128) buf
      | exception Errno.Fs_error (Errno.EIO, _) ->
        Alcotest.fail "transient faults surfaced as EIO");
      check_bool "transient faults drawn" true
        (Stats.media_faults_transient stats > 0);
      check_bool "retries counted" true (Stats.media_retries stats > 0))

(* --- fsck vacuity --- *)

(* check_cow must actually be able to fail: overstate one persistent
   refcount behind fsck's back and require a violation. *)
let test_fsck_flags_refcount_corruption () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs = Cowfs.mkfs_and_mount device () in
      let a = Cowfs.create_file fs ~dir:root "a" in
      wr fs ~ino:a (Testkit.pattern_bytes ~seed:14 2000);
      fsck_clean "before corruption" fs;
      let bs = Cowfs.block_size fs in
      let epp = bs / 2 in
      let victim = ref 0 in
      (let b = ref 1 in
       while !victim = 0 && !b < Cowfs.total_blocks fs do
         if Cowfs.refcount fs !b = 1 then victim := !b;
         incr b
       done);
      check_bool "found a live block" true (!victim > 0);
      let pg =
        Int64.to_int
          (Device.get_u64 device
             ((Cowfs.refcount_root fs * bs) + (8 * (!victim / epp))))
      in
      let entry = Bytes.create 2 in
      Bytes.set_uint16_le entry 0 3;
      Device.poke_flushed device
        ~addr:((pg * bs) + (2 * (!victim mod epp)))
        ~src:entry ~off:0 ~len:2;
      let r = Fsck.check_cow fs in
      check_bool "fsck flags the overstated refcount" false (Fsck.ok r))

(* A dirent whose name length is out of range is a fsck violation, as in
   PMFS mode, and fails lookup and readdir with EIO. *)
let test_malformed_dirent () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs = Cowfs.mkfs_and_mount device () in
      ignore (Cowfs.create_file fs ~dir:root "victim");
      let block =
        Option.get
          (Cowfs.lookup_block_at fs ~imap:(Cowfs.imap_root fs) ~ino:root
             ~fblock:0)
      in
      let bad_len = Bytes.make 2 '\255' in
      Device.poke device
        ~addr:((block * Cowfs.block_size fs) + 4)
        ~src:bad_len ~off:0 ~len:2;
      check_bool "fsck reports the bad name length" true
        (List.mem
           (Fmt.str "dir %d: dirent block %d slot 0 has bad name length 65535"
              root block)
           (Fsck.cow_violations fs));
      let eio f =
        try
          ignore (f ());
          false
        with Errno.Fs_error (EIO, _) -> true
      in
      check_bool "lookup fails with EIO" true
        (eio (fun () -> Cowfs.lookup fs ~dir:root "victim"));
      check_bool "readdir fails with EIO" true
        (eio (fun () -> Cowfs.readdir fs ~dir:root)))

let () =
  Alcotest.run "cow"
    [
      ( "basic",
        [
          Alcotest.test_case "persistence across remount" `Quick
            test_persistence;
          Alcotest.test_case "mount on blank device" `Quick
            test_mount_blank_device;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "lifecycle + refcount gc" `Quick
            test_snapshot_lifecycle;
          Alcotest.test_case "rejected inside txn" `Quick
            test_snapshot_inside_txn_rejected;
        ] );
      ( "txn",
        [
          Alcotest.test_case "crash-image atomicity" `Quick
            test_txn_crash_image_atomicity;
          Alcotest.test_case "abort net-zero" `Quick test_txn_abort_net_zero;
        ] );
      ( "faults",
        [
          Alcotest.test_case "enospc abort net-zero" `Quick
            test_enospc_abort_net_zero;
          Alcotest.test_case "commit fault abort net-zero" `Quick
            test_commit_fault_abort_net_zero;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "root slot poison fallback" `Quick
            test_root_slot_poison_fallback;
          Alcotest.test_case "transient read retried" `Quick
            test_transient_read_retried;
          Alcotest.test_case "fsck flags refcount corruption" `Quick
            test_fsck_flags_refcount_corruption;
          Alcotest.test_case "malformed dirent" `Quick test_malformed_dirent;
        ] );
    ]
