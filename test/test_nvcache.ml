(* Tests for the lib/nvcache durability tier: fsync absorption, read-your-
   writes, destage, ring wrap + backpressure, crash replay for both the
   logging and the paging design, and replay idempotence. *)

module Engine = Hinfs_sim.Engine
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Extfs = Hinfs_extfs.Extfs
module Nvcache = Hinfs_nvcache.Nvcache
module Obs = Hinfs_obs.Obs
module Types = Hinfs_vfs.Types
module Vfs = Hinfs_vfs.Vfs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Fresh nvcache-over-ext4 stack on a fresh device. Sync mount so every
   write is a synchronous bio the tier must absorb; daemons off so the
   engine drains when the test body finishes. *)
let make_stack ?stats ?(design = Nvcache.Logging) ?(mode = Extfs.Ext4)
    ?cache_bytes ?(daemons = false) engine =
  let device = Testkit.make_device ?stats engine in
  let st =
    Nvcache.mkfs_and_mount device ~design ~mode ?cache_bytes
      ~journal_blocks:16 ~sync_mount:true ~cache_pages:64 ~daemons ()
  in
  (device, st)

let write_file h path payload =
  let fd = h.Vfs.open_ path { Types.creat with Types.read = true } in
  ignore (h.Vfs.write fd payload (Bytes.length payload));
  h.Vfs.fsync fd;
  h.Vfs.close fd

let read_file h path len =
  let fd = h.Vfs.open_ path Types.rdonly in
  let buf = Bytes.create len in
  let n = h.Vfs.pread fd ~off:0 buf len in
  h.Vfs.close fd;
  (n, buf)

(* --- absorption and read-your-writes --- *)

let test_absorbs_and_reads_back design () =
  Testkit.run_sim (fun engine ->
      let _d, st = make_stack ~design engine in
      let h = Nvcache.handle st in
      let cache = Nvcache.cache st in
      let payload = Testkit.pattern_bytes ~seed:31 10_000 in
      write_file h "/f" payload;
      (* The fsync'd write was absorbed, not written through. *)
      check_bool "tier absorbed writes" true (Nvcache.appends cache > 0);
      check_bool "backlog pending" true (Nvcache.backlog cache > 0);
      check_bool "cache occupied" true (Nvcache.used_bytes cache > 0);
      (* Read-your-writes through the tier before any destage. *)
      let n, buf = read_file h "/f" 10_000 in
      check_int "length" 10_000 n;
      Testkit.check_bytes "read-your-writes" payload buf;
      Nvcache.unmount st)

(* --- destage drains and truncates --- *)

let test_destage_drains design () =
  Testkit.run_sim (fun engine ->
      let _d, st = make_stack ~design engine in
      let h = Nvcache.handle st in
      let cache = Nvcache.cache st in
      let payload = Testkit.pattern_bytes ~seed:32 20_000 in
      write_file h "/f" payload;
      Nvcache.destage_all cache;
      check_int "backlog drained" 0 (Nvcache.backlog cache);
      check_int "cache truncated" 0 (Nvcache.used_bytes cache);
      check_bool "destage batches ran" true (Nvcache.destages cache > 0);
      check_bool "records destaged" true (Nvcache.destaged_records cache > 0);
      (* Content now comes from the backend. *)
      let n, buf = read_file h "/f" 20_000 in
      check_int "length" 20_000 n;
      Testkit.check_bytes "content after destage" payload buf;
      Nvcache.unmount st)

(* --- crash with a full backlog: replay recovers everything --- *)

let test_crash_replay design () =
  let payload0 = Testkit.pattern_bytes ~seed:33 9_000 in
  let payload1 = Testkit.pattern_bytes ~seed:34 14_000 in
  let snap =
    Testkit.run_sim (fun engine ->
        let device, st = make_stack ~design engine in
        let h = Nvcache.handle st in
        write_file h "/a" payload0;
        write_file h "/b" payload1;
        (* Crash with the whole backlog still in NVMM. *)
        check_bool "backlog at crash" true
          (Nvcache.backlog (Nvcache.cache st) > 0);
        Device.snapshot device)
  in
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let device = Device.of_snapshot engine stats Testkit.small_config snap in
      let st =
        Nvcache.mount device ~mode:Extfs.Ext4 ~sync_mount:true ~cache_pages:64
          ()
      in
      (match Nvcache.last_recovery st with
      | None -> Alcotest.fail "mount did not run replay"
      | Some r ->
        check_bool "replay applied records" true (r.Nvcache.rec_replayed > 0);
        check_int "nothing dropped" 0 r.Nvcache.rec_dropped);
      let h = Nvcache.handle st in
      let n0, buf0 = read_file h "/a" 9_000 in
      check_int "a length" 9_000 n0;
      Testkit.check_bytes "a content" payload0 buf0;
      let n1, buf1 = read_file h "/b" 14_000 in
      check_int "b length" 14_000 n1;
      Testkit.check_bytes "b content" payload1 buf1;
      Nvcache.unmount st)

(* --- replay is idempotent: a second recover finds an empty cache --- *)

let test_replay_idempotent () =
  let snap =
    Testkit.run_sim (fun engine ->
        let device, st = make_stack ~design:Nvcache.Logging engine in
        let h = Nvcache.handle st in
        write_file h "/a" (Testkit.pattern_bytes ~seed:35 8_000);
        Device.snapshot device)
  in
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let device = Device.of_snapshot engine stats Testkit.small_config snap in
      let r1 = Nvcache.recover device () in
      check_bool "first replay applies" true (r1.Nvcache.rec_replayed > 0);
      let r2 = Nvcache.recover device () in
      check_int "second replay finds empty cache" 0 r2.Nvcache.rec_replayed;
      check_int "second replay drops nothing" 0 r2.Nvcache.rec_dropped)

(* --- clean unmount leaves an empty cache --- *)

let test_clean_unmount_empty_cache () =
  let payload = Testkit.pattern_bytes ~seed:36 12_000 in
  let snap =
    Testkit.run_sim (fun engine ->
        let device, st = make_stack ~design:Nvcache.Paging engine in
        let h = Nvcache.handle st in
        write_file h "/k" payload;
        Nvcache.unmount st;
        Device.snapshot device)
  in
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let device = Device.of_snapshot engine stats Testkit.small_config snap in
      let st =
        Nvcache.mount device ~mode:Extfs.Ext4 ~sync_mount:true ~cache_pages:64
          ()
      in
      (match Nvcache.last_recovery st with
      | None -> Alcotest.fail "mount did not run replay"
      | Some r -> check_int "nothing to replay" 0 r.Nvcache.rec_replayed);
      let h = Nvcache.handle st in
      let n, buf = read_file h "/k" 12_000 in
      check_int "length" 12_000 n;
      Testkit.check_bytes "content from backend" payload buf;
      Nvcache.unmount st)

(* --- ring wrap + backpressure (logging, tiny ring, inline destage) --- *)

let test_ring_wrap_and_stalls () =
  Testkit.run_sim (fun engine ->
      (* 6 cache blocks: small enough that 120 KB of sync writes drives the
         ring past half occupancy (fresh blocks then take the write-around
         path) and in-place overwrites — whose blocks still have pending
         records and so MUST absorb — fill it completely and wait for
         destage. *)
      let _d, st =
        make_stack ~design:Nvcache.Logging ~cache_bytes:(6 * 4096) engine
      in
      let h = Nvcache.handle st in
      let cache = Nvcache.cache st in
      check_bool "tiny capacity" true (Nvcache.capacity_bytes cache < 6 * 4096);
      let payloads =
        List.init 5 (fun i -> (i, Testkit.pattern_bytes ~seed:(40 + i) 12_000))
      in
      List.iter
        (fun (i, p) -> write_file h (Printf.sprintf "/w%d" i) p)
        payloads;
      check_bool "write-around engaged past half occupancy" true
        (Nvcache.bypassed_writes cache > 0);
      (* In-place overwrites: same blocks, pending versions in the ring. *)
      let payloads2 =
        List.map
          (fun (i, _) -> (i, Testkit.pattern_bytes ~seed:(80 + i) 12_000))
          payloads
      in
      List.iter
        (fun (i, p) -> write_file h (Printf.sprintf "/w%d" i) p)
        payloads2;
      check_bool "append waited for space" true (Nvcache.stalls cache > 0);
      check_bool "appends absorbed" true (Nvcache.appends cache > 0);
      List.iter
        (fun (i, p) ->
          let n, buf = read_file h (Printf.sprintf "/w%d" i) 12_000 in
          check_int "length" 12_000 n;
          Testkit.check_bytes (Printf.sprintf "w%d content" i) p buf)
        payloads2;
      Nvcache.unmount st)

(* --- paging: repeated overwrite, newest version wins at replay --- *)

let test_paging_overwrite_replay () =
  let final = Testkit.pattern_bytes ~seed:59 4_096 in
  let snap =
    Testkit.run_sim (fun engine ->
        let device, st = make_stack ~design:Nvcache.Paging engine in
        let h = Nvcache.handle st in
        (* Several fsync'd versions of the same block: each takes a fresh
           slot, so the committed version is never overwritten in place. *)
        for v = 0 to 4 do
          write_file h "/v" (Testkit.pattern_bytes ~seed:(55 + v) 4_096)
        done;
        Device.snapshot device)
  in
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let device = Device.of_snapshot engine stats Testkit.small_config snap in
      let st =
        Nvcache.mount device ~mode:Extfs.Ext4 ~sync_mount:true ~cache_pages:64
          ()
      in
      let h = Nvcache.handle st in
      let n, buf = read_file h "/v" 4_096 in
      check_int "length" 4_096 n;
      Testkit.check_bytes "newest version after replay" final buf;
      Nvcache.unmount st)

(* --- destage daemon drains in the background --- *)

let test_destage_daemon () =
  Testkit.run_sim (fun engine ->
      let _d, st = make_stack ~design:Nvcache.Logging ~daemons:true engine in
      let h = Nvcache.handle st in
      let cache = Nvcache.cache st in
      let payload = Testkit.pattern_bytes ~seed:61 16_000 in
      write_file h "/d" payload;
      (* Give the daemon virtual time to drain the backlog. *)
      let deadline = 10_000 in
      let rec wait n =
        if Nvcache.backlog cache > 0 && n < deadline then begin
          Hinfs_sim.Proc.delay 100_000L;
          wait (n + 1)
        end
      in
      wait 0;
      check_int "daemon drained the backlog" 0 (Nvcache.backlog cache);
      let n, buf = read_file h "/d" 16_000 in
      check_int "length" 16_000 n;
      Testkit.check_bytes "content" payload buf;
      (* Unmount stops the daemon so the engine can drain. *)
      Nvcache.unmount st)

(* --- obs phases: append/destage/replay spans are recorded --- *)

let test_obs_phases () =
  let engine = Engine.create () in
  let obs = Obs.create engine in
  Obs.install obs;
  Fun.protect ~finally:Obs.uninstall @@ fun () ->
  let snap = ref None in
  Engine.spawn engine ~name:"nvcache-obs" (fun () ->
      let device, st = make_stack ~design:Nvcache.Logging engine in
      let h = Nvcache.handle st in
      write_file h "/o" (Testkit.pattern_bytes ~seed:71 8_000);
      snap := Some (Device.snapshot device);
      Nvcache.unmount st);
  Engine.run engine;
  let engine2 = Engine.create () in
  Engine.spawn engine2 ~name:"nvcache-obs-replay" (fun () ->
      let stats = Stats.create () in
      let device =
        Device.of_snapshot engine2 stats Testkit.small_config
          (Option.get !snap)
      in
      ignore (Nvcache.recover device ()));
  Engine.run engine2;
  let count kind = (Obs.hist obs kind).Hinfs_obs.Hist.count in
  check_bool "nvcache.append spans" true (count Obs.Nvcache_append > 0);
  check_bool "nvcache.destage spans" true (count Obs.Nvcache_destage > 0);
  check_bool "nvcache.replay spans" true (count Obs.Nvcache_replay > 0);
  check_int "balanced spans" 0 (Obs.open_spans obs)

let () =
  Alcotest.run "nvcache"
    [
      ( "absorb",
        [
          Alcotest.test_case "nvlog absorbs + reads back" `Quick
            (test_absorbs_and_reads_back Nvcache.Logging);
          Alcotest.test_case "nvpage absorbs + reads back" `Quick
            (test_absorbs_and_reads_back Nvcache.Paging);
        ] );
      ( "destage",
        [
          Alcotest.test_case "nvlog destage drains" `Quick
            (test_destage_drains Nvcache.Logging);
          Alcotest.test_case "nvpage destage drains" `Quick
            (test_destage_drains Nvcache.Paging);
          Alcotest.test_case "daemon drains backlog" `Quick test_destage_daemon;
        ] );
      ( "replay",
        [
          Alcotest.test_case "nvlog crash replay" `Quick
            (test_crash_replay Nvcache.Logging);
          Alcotest.test_case "nvpage crash replay" `Quick
            (test_crash_replay Nvcache.Paging);
          Alcotest.test_case "replay idempotent" `Quick test_replay_idempotent;
          Alcotest.test_case "clean unmount leaves cache empty" `Quick
            test_clean_unmount_empty_cache;
          Alcotest.test_case "paging overwrite newest wins" `Quick
            test_paging_overwrite_replay;
        ] );
      ( "pressure",
        [
          Alcotest.test_case "ring wrap + stalls" `Quick
            test_ring_wrap_and_stalls;
        ] );
      ( "obs",
        [
          Alcotest.test_case "append/destage/replay spans" `Quick
            test_obs_phases;
        ] );
    ]
