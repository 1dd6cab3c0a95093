(* Tests for the page cache and the EXT2/EXT4/EXT4-DAX baselines. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Blockdev = Hinfs_blockdev.Blockdev
module Pagecache = Hinfs_pagecache.Pagecache
module Extfs = Hinfs_extfs.Extfs
module Fault = Hinfs_nvmm.Fault
module Obs = Hinfs_obs.Obs
module Ojson = Hinfs_obs.Ojson
module Errno = Hinfs_vfs.Errno
module Types = Hinfs_vfs.Types
module Vfs = Hinfs_vfs.Vfs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let cat = Stats.Other

let make_extfs ?stats ?(mode = Extfs.Ext2) ?(cache_pages = 128)
    ?(daemons = false) engine =
  let device = Testkit.make_device ?stats engine in
  let fs =
    Extfs.mkfs_and_mount device ~mode ~journal_blocks:16 ~cache_pages ~daemons
      ()
  in
  (device, fs)

(* --- page cache --- *)

let test_pagecache_read_write () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let bdev = Blockdev.create d in
      let cache = Pagecache.create bdev ~capacity_pages:16 in
      let payload = Testkit.pattern_bytes ~seed:1 4096 in
      Pagecache.write cache ~cat ~block:3 ~off:0 ~src:payload ~src_off:0
        ~len:4096;
      check_int "dirty" 1 (Pagecache.dirty_pages cache);
      (* Readable through the cache before writeback. *)
      let buf = Bytes.create 4096 in
      Pagecache.read cache ~cat ~block:3 ~off:0 ~len:4096 ~into:buf
        ~into_off:0;
      Testkit.check_bytes "cached read" payload buf;
      (* Not yet on the device. *)
      check_bool "device still zero" true
        (Bytes.to_string (Blockdev.peek_block bdev 3) = String.make 4096 '\000');
      Pagecache.flush_block cache ~cat 3;
      check_int "clean after flush" 0 (Pagecache.dirty_pages cache);
      Testkit.check_bytes "device updated" payload (Blockdev.peek_block bdev 3))

let test_pagecache_fetch_before_partial_write () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let bdev = Blockdev.create d in
      let cache = Pagecache.create bdev ~capacity_pages:16 in
      let base = Testkit.pattern_bytes ~seed:2 4096 in
      Blockdev.poke_block bdev 7 ~src:base ~off:0;
      (* Partial write to an uncached block must fetch it first. *)
      let misses0 = Pagecache.misses cache in
      let patch = Bytes.make 100 'P' in
      Pagecache.write cache ~cat ~block:7 ~off:500 ~src:patch ~src_off:0
        ~len:100;
      check_int "miss fetched" (misses0 + 1) (Pagecache.misses cache);
      let buf = Bytes.create 4096 in
      Pagecache.read cache ~cat ~block:7 ~off:0 ~len:4096 ~into:buf ~into_off:0;
      let expected = Bytes.copy base in
      Bytes.blit patch 0 expected 500 100;
      Testkit.check_bytes "merged content" expected buf)

let test_pagecache_eviction_prefers_clean () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let bdev = Blockdev.create d in
      let cache = Pagecache.create bdev ~capacity_pages:8 in
      (* 4 dirty pages, then read 8 more: clean pages get evicted first;
         dirty survive until forced. *)
      let payload = Bytes.make 4096 'D' in
      for b = 0 to 3 do
        Pagecache.write cache ~cat ~block:b ~off:0 ~src:payload ~src_off:0
          ~len:4096
      done;
      let buf = Bytes.create 4096 in
      for b = 10 to 17 do
        Pagecache.read cache ~cat ~block:b ~off:0 ~len:4096 ~into:buf
          ~into_off:0
      done;
      (* Cache holds 8 pages; the 4 dirty ones should still be among them
         as long as clean victims existed. *)
      check_int "capacity respected" 8 (Pagecache.cached_pages cache);
      check_int "dirty retained" 4 (Pagecache.dirty_pages cache);
      (* Fill the whole cache with dirty pages, then one more miss forces a
         foreground writeback. *)
      for b = 20 to 27 do
        Pagecache.write cache ~cat ~block:b ~off:0 ~src:payload ~src_off:0
          ~len:4096
      done;
      Pagecache.read cache ~cat ~block:99 ~off:0 ~len:4096 ~into:buf
        ~into_off:0;
      check_bool "foreground writebacks happened" true
        (Pagecache.foreground_writebacks cache > 0);
      (* The dirty data reached the device. *)
      Testkit.check_bytes "writeback content" payload
        (Blockdev.peek_block bdev 0))

let test_pagecache_flusher_daemon () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let bdev = Blockdev.create d in
      let cache = Pagecache.create bdev ~capacity_pages:32 in
      Pagecache.start_flusher cache;
      let payload = Bytes.make 4096 'F' in
      for b = 0 to 19 do
        Pagecache.write cache ~cat ~block:b ~off:0 ~src:payload ~src_off:0
          ~len:4096
      done;
      check_int "dirty before" 20 (Pagecache.dirty_pages cache);
      (* Passing the dirty ratio (0.2 * 32 = 6.4 pages) wakes the flusher
         before its 5 s period. *)
      Proc.delay 3_000_000_000L;
      check_bool "dirty-ratio wakeup cleaned pages" true
        (Pagecache.dirty_pages cache < 20);
      (* By the periodic pass at 5 s it has cleaned down to the background
         ratio, int_of_float (0.1 * 32) = 3 pages. *)
      Proc.delay 3_000_000_000L;
      check_int "flusher cleaned down to background ratio" 3
        (Pagecache.dirty_pages cache);
      Pagecache.stop_flusher cache)

(* --- extfs basic (each mode) --- *)

let roundtrip_test mode () =
  Testkit.run_sim (fun engine ->
      let _d, fs = make_extfs ~mode engine in
      let h = Extfs.handle fs in
      h.Vfs.mkdir "/d";
      let fd = h.Vfs.open_ "/d/file" { Types.creat with Types.read = true } in
      let payload = Testkit.pattern_bytes ~seed:3 50_000 in
      check_int "write" 50_000 (h.Vfs.write fd payload 50_000);
      h.Vfs.seek fd 0;
      let buf = Bytes.create 50_000 in
      check_int "read" 50_000 (h.Vfs.read fd buf 50_000);
      Testkit.check_bytes "round trip" payload buf;
      h.Vfs.fsync fd;
      h.Vfs.close fd;
      (* Unaligned overwrite. *)
      let fd = h.Vfs.open_ "/d/file" Types.rdwr in
      let patch = Bytes.make 5000 'Z' in
      ignore (h.Vfs.pwrite fd ~off:3000 patch 5000);
      let buf2 = Bytes.create 50_000 in
      ignore (h.Vfs.pread fd ~off:0 buf2 50_000);
      let expected = Bytes.copy payload in
      Bytes.blit patch 0 expected 3000 5000;
      Testkit.check_bytes "patched" expected buf2;
      h.Vfs.close fd;
      h.Vfs.unlink "/d/file";
      check_bool "gone" false (h.Vfs.exists "/d/file"))

let test_indirect_blocks () =
  Testkit.run_sim (fun engine ->
      let config =
        { Testkit.small_config with Hinfs_nvmm.Config.nvmm_size = 64 * 1024 * 1024 }
      in
      let device = Testkit.make_device ~config engine in
      let fs =
        Extfs.mkfs_and_mount device ~mode:Extfs.Ext2 ~journal_blocks:16
          ~cache_pages:2048 ()
      in
      let h = Extfs.handle fs in
      (* 12 direct cover 48 KB; single indirect covers 4 MB more; write 6 MB
         to exercise the double-indirect path. *)
      let fd = h.Vfs.open_ "/big" { Types.creat with Types.read = true } in
      let chunk = 65536 in
      let n = 96 in
      for i = 0 to n - 1 do
        let payload = Bytes.make chunk (Char.chr (33 + (i mod 90))) in
        ignore (h.Vfs.pwrite fd ~off:(i * chunk) payload chunk)
      done;
      check_int "size" (n * chunk) (h.Vfs.fstat fd).Types.size;
      (* Spot check across the direct/indirect/double-indirect ranges. *)
      List.iter
        (fun i ->
          let buf = Bytes.create 8 in
          ignore (h.Vfs.pread fd ~off:(i * chunk) buf 8);
          Alcotest.(check char)
            "content" (Char.chr (33 + (i mod 90)))
            (Bytes.get buf 0))
        [ 0; 1; 20; 63; 64; 95 ];
      h.Vfs.close fd;
      (* Deleting reclaims everything. *)
      let free_before = Extfs.free_data_blocks fs in
      h.Vfs.unlink "/big";
      check_bool "blocks reclaimed" true
        (Extfs.free_data_blocks fs > free_before))

let test_ext4_journal_commits () =
  Testkit.run_sim (fun engine ->
      let _d, fs = make_extfs ~mode:Extfs.Ext4 engine in
      let h = Extfs.handle fs in
      let fd = h.Vfs.open_ "/j" Types.creat in
      let payload = Bytes.make 8192 'J' in
      ignore (h.Vfs.write fd payload 8192);
      h.Vfs.fsync fd;
      h.Vfs.close fd;
      check_bool "journal committed at fsync" true
        (Extfs.journal_commits fs > 0))

let test_ext4_dax_bypasses_page_cache_for_data () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let _d, fs = make_extfs ~stats ~mode:Extfs.Ext4_dax engine in
      let h = Extfs.handle fs in
      let fd = h.Vfs.open_ "/dax" { Types.creat with Types.read = true } in
      let payload = Testkit.pattern_bytes ~seed:4 16_384 in
      let nvmm_before = Stats.nvmm_bytes_written stats in
      ignore (h.Vfs.write fd payload 16_384);
      (* DAX: the data reached NVMM synchronously. *)
      let written =
        Int64.to_int (Int64.sub (Stats.nvmm_bytes_written stats) nvmm_before)
      in
      check_bool "data went straight to NVMM" true (written >= 16_384);
      h.Vfs.seek fd 0;
      let buf = Bytes.create 16_384 in
      ignore (h.Vfs.read fd buf 16_384);
      Testkit.check_bytes "dax read" payload buf;
      h.Vfs.close fd)

let test_ext2_vs_ext4_journal_overhead () =
  (* EXT4 writes more blocks than EXT2 for the same metadata workload
     (Fig. 13's EXT2-faster-than-EXT4 observation). *)
  let run mode =
    let stats = Stats.create () in
    Testkit.run_sim (fun engine ->
        let _d, fs = make_extfs ~stats ~mode engine in
        let h = Extfs.handle fs in
        for i = 0 to 30 do
          let path = Printf.sprintf "/f%d" i in
          let fd = h.Vfs.open_ path Types.creat in
          let payload = Bytes.make 4096 'x' in
          ignore (h.Vfs.write fd payload 4096);
          h.Vfs.fsync fd;
          h.Vfs.close fd
        done);
    Stats.time stats Stats.Journal
  in
  let ext2 = run Extfs.Ext2 in
  let ext4 = run Extfs.Ext4 in
  check_bool "ext2 pays no journal time" true (Int64.equal ext2 0L);
  check_bool "ext4 pays journal time" true (Int64.compare ext4 0L > 0)

let test_double_copy_overhead_vs_direct () =
  (* The cached read path costs more time than a DAX read of the same data
     (double copy + block layer). *)
  let read_time mode =
    let stats = Stats.create () in
    Testkit.run_sim (fun engine ->
        let _d, fs = make_extfs ~stats ~mode ~cache_pages:64 engine in
        let h = Extfs.handle fs in
        let fd = h.Vfs.open_ "/r" { Types.creat with Types.read = true } in
        let payload = Testkit.pattern_bytes ~seed:5 (64 * 4096) in
        ignore (h.Vfs.write fd payload (64 * 4096));
        h.Vfs.fsync fd;
        (* Drop the cache by filling it with other data. *)
        let other = h.Vfs.open_ "/other" { Types.creat with Types.read = true } in
        ignore (h.Vfs.write other payload (64 * 4096));
        h.Vfs.fsync other;
        let t0 = Proc.now () in
        let buf = Bytes.create (64 * 4096) in
        ignore (h.Vfs.pread fd ~off:0 buf (64 * 4096));
        Testkit.check_bytes "content" payload buf;
        h.Vfs.close fd;
        h.Vfs.close other;
        Int64.sub (Proc.now ()) t0)
  in
  let cached = read_time Extfs.Ext2 in
  let dax = read_time Extfs.Ext4_dax in
  check_bool "cold cached read slower than direct" true
    (Int64.compare cached dax > 0)

let test_remount_preserves () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs =
        Extfs.mkfs_and_mount device ~mode:Extfs.Ext2 ~journal_blocks:16
          ~cache_pages:64 ()
      in
      let h = Extfs.handle fs in
      let fd = h.Vfs.open_ "/keep" Types.creat in
      let payload = Testkit.pattern_bytes ~seed:6 20_000 in
      ignore (h.Vfs.write fd payload 20_000);
      h.Vfs.close fd;
      h.Vfs.unmount ();
      let fs2 = Extfs.mount device ~mode:Extfs.Ext2 ~cache_pages:64 () in
      let h2 = Extfs.handle fs2 in
      let fd2 = h2.Vfs.open_ "/keep" Types.rdonly in
      let buf = Bytes.create 20_000 in
      check_int "size preserved" 20_000 (h2.Vfs.read fd2 buf 20_000);
      Testkit.check_bytes "data preserved" payload buf;
      h2.Vfs.close fd2)

(* --- crash / fault coverage --- *)

(* Find [needle] in [hay]; -1 when absent. Payloads are pseudo-random, so
   a 64-byte prefix locates a file's data block on the medium. *)
let find_bytes hay needle =
  let nl = Bytes.length needle and hl = Bytes.length hay in
  let rec go i =
    if i + nl > hl then -1
    else if Bytes.equal (Bytes.sub hay i nl) needle then i
    else go (i + 1)
  in
  go 0

(* Crash after fsync, remount from the crash image: EXT4's journal replay
   must restore the fsync'd file byte for byte. Then, with a fault model
   attached (lib/nvmm/fault), a poisoned cacheline under that file must
   surface as a media error — never as silently wrong data — and clearing
   the poison restores the original content. *)
let test_ext4_journal_replay_after_crash () =
  let payload = Testkit.pattern_bytes ~seed:21 12_000 in
  let snap =
    Testkit.run_sim (fun engine ->
        let device = Testkit.make_device engine in
        let fs =
          Extfs.mkfs_and_mount device ~mode:Extfs.Ext4 ~journal_blocks:16
            ~cache_pages:64 ()
        in
        let h = Extfs.handle fs in
        let fd = h.Vfs.open_ "/a" Types.creat in
        ignore (h.Vfs.write fd payload 12_000);
        h.Vfs.fsync fd;
        h.Vfs.close fd;
        check_bool "journal committed before crash" true
          (Extfs.journal_commits fs > 0);
        (* A second file left un-fsync'd: the crash is free to lose it. *)
        let fd2 = h.Vfs.open_ "/b" Types.creat in
        ignore (h.Vfs.write fd2 (Bytes.make 5000 'b') 5000);
        h.Vfs.close fd2;
        Device.snapshot device)
  in
  (* Remount the crash image: replay restores the fsync'd file. *)
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let device = Device.of_snapshot engine stats Testkit.small_config snap in
      let fs = Extfs.mount device ~mode:Extfs.Ext4 ~cache_pages:64 () in
      let h = Extfs.handle fs in
      let fd = h.Vfs.open_ "/a" Types.rdonly in
      let buf = Bytes.create 12_000 in
      check_int "size survives replay" 12_000 (h.Vfs.read fd buf 12_000);
      Testkit.check_bytes "content survives replay" payload buf;
      h.Vfs.close fd;
      h.Vfs.unmount ());
  (* Same crash image again, this time with a poisoned line under the
     file's data: the read must fault, and must heal cleanly. *)
  let addr = find_bytes (Device.image_to_bytes snap) (Bytes.sub payload 0 64) in
  check_bool "payload located on the medium" true (addr >= 0);
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let device = Device.of_snapshot engine stats Testkit.small_config snap in
      let fault = Fault.create ~seed:3L () in
      Device.set_fault_model device (Some fault);
      let fs = Extfs.mount device ~mode:Extfs.Ext4 ~cache_pages:64 () in
      let h = Extfs.handle fs in
      Fault.poison_line fault (addr / 64);
      let fd = h.Vfs.open_ "/a" Types.rdonly in
      let buf = Bytes.create 12_000 in
      let faulted =
        match h.Vfs.pread fd ~off:0 buf 12_000 with
        | _ -> false
        | exception Fault.Media_error _ -> true
      in
      check_bool "poisoned read surfaces a media error" true faulted;
      check_bool "fault counted" true (Stats.media_faults_poison stats > 0);
      Fault.clear_line fault (addr / 64);
      check_int "re-read after heal" 12_000 (h.Vfs.pread fd ~off:0 buf 12_000);
      Testkit.check_bytes "content intact after heal" payload buf;
      h.Vfs.close fd;
      h.Vfs.unmount ())

(* --- mmap / msync ordering --- *)

(* Extfs.Backend.mmap must order in-flight updates with full fsync
   semantics (data writeback + journal commit) before the mapping is
   exposed, and emit pin/unpin instants — the same contract the Pmfs.mmap
   fix established. msync pays the same ordering for a dirtied mapping. *)
let test_mmap_msync_ordering () =
  let engine = Engine.create () in
  let obs = Obs.create ~trace:true engine in
  Obs.install obs;
  Fun.protect ~finally:Obs.uninstall @@ fun () ->
  let mmap_fences = ref (-1) in
  let mmap_commits = ref (-1) in
  let msync_commits = ref (-1) in
  Engine.spawn engine ~name:"mmap-test" (fun () ->
      let stats = Stats.create () in
      let device = Testkit.make_device ~stats engine in
      let fs =
        Extfs.mkfs_and_mount device ~mode:Extfs.Ext4 ~journal_blocks:16
          ~cache_pages:64 ()
      in
      let h = Extfs.handle fs in
      let fd = h.Vfs.open_ "/m" Types.creat in
      ignore (h.Vfs.write fd (Bytes.make 8192 'm') 8192);
      let f0 = Stats.total_mfences stats in
      let c0 = Extfs.journal_commits fs in
      h.Vfs.mmap fd;
      mmap_fences := Stats.total_mfences stats - f0;
      mmap_commits := Extfs.journal_commits fs - c0;
      (* Extend the file through the mapping; msync must order it. *)
      ignore (h.Vfs.pwrite fd ~off:8192 (Bytes.make 4096 'n') 4096);
      let c1 = Extfs.journal_commits fs in
      h.Vfs.msync fd;
      msync_commits := Extfs.journal_commits fs - c1;
      h.Vfs.munmap fd;
      h.Vfs.close fd;
      h.Vfs.unmount ());
  Engine.run engine;
  check_bool "mmap issues fences" true (!mmap_fences > 0);
  check_bool "mmap commits the journal" true (!mmap_commits > 0);
  check_bool "msync commits the journal" true (!msync_commits > 0);
  let trace = Ojson.to_string (Obs.chrome_trace obs) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "mmap.pin instant in the trace" true (contains "mmap.pin" trace);
  check_bool "mmap.unpin instant in the trace" true
    (contains "mmap.unpin" trace);
  check_int "balanced spans" 0 (Obs.open_spans obs)

(* --- model prop per mode --- *)

let extfs_model_prop mode name =
  QCheck.Test.make ~name ~count:20
    QCheck.(small_nat)
    (fun seed ->
      Testkit.run_sim (fun engine ->
          let _d, fs = make_extfs ~mode ~cache_pages:48 engine in
          let h = Extfs.handle fs in
          let rng = Rng.create ~seed:(Int64.of_int ((seed * 733) + 5)) in
          let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
          let paths = Array.init 6 (fun i -> Printf.sprintf "/x%d" i) in
          let ok = ref true in
          for step = 0 to 200 do
            let path = Rng.pick rng paths in
            match Rng.int rng 6 with
            | 0 | 1 ->
              let len = Rng.int rng 15_000 in
              let payload = Testkit.pattern_bytes ~seed:step len in
              let fd =
                h.Vfs.open_ path { Types.creat with Types.truncate = true }
              in
              ignore (h.Vfs.write fd payload len);
              h.Vfs.close fd;
              Hashtbl.replace model path (Bytes.copy payload)
            | 2 -> (
              match Hashtbl.find_opt model path with
              | None -> ()
              | Some content ->
                let size = Bytes.length content in
                let off = Rng.int rng (size + 3000) in
                let len = 1 + Rng.int rng 4000 in
                let payload = Testkit.pattern_bytes ~seed:(step + 23) len in
                let fd = h.Vfs.open_ path Types.rdwr in
                ignore (h.Vfs.pwrite fd ~off payload len);
                h.Vfs.close fd;
                let new_size = max size (off + len) in
                let updated = Bytes.make new_size '\000' in
                Bytes.blit content 0 updated 0 size;
                Bytes.blit payload 0 updated off len;
                Hashtbl.replace model path updated)
            | 3 -> (
              match Hashtbl.find_opt model path with
              | None -> ()
              | Some _ ->
                let fd = h.Vfs.open_ path Types.rdwr in
                h.Vfs.fsync fd;
                h.Vfs.close fd)
            | 4 -> (
              match Hashtbl.find_opt model path with
              | None -> ()
              | Some _ ->
                h.Vfs.unlink path;
                Hashtbl.remove model path)
            | _ -> (
              match Hashtbl.find_opt model path with
              | None -> if h.Vfs.exists path then ok := false
              | Some content ->
                let fd = h.Vfs.open_ path Types.rdonly in
                let buf = Bytes.create (Bytes.length content + 64) in
                let n = h.Vfs.pread fd ~off:0 buf (Bytes.length buf) in
                h.Vfs.close fd;
                if
                  n <> Bytes.length content
                  || not (Bytes.equal (Bytes.sub buf 0 n) content)
                then ok := false)
          done;
          !ok))

let () =
  Alcotest.run "extfs"
    [
      ( "pagecache",
        [
          Alcotest.test_case "read/write" `Quick test_pagecache_read_write;
          Alcotest.test_case "fetch before partial write" `Quick
            test_pagecache_fetch_before_partial_write;
          Alcotest.test_case "eviction prefers clean" `Quick
            test_pagecache_eviction_prefers_clean;
          Alcotest.test_case "flusher daemon" `Quick
            test_pagecache_flusher_daemon;
        ] );
      ( "modes",
        [
          Alcotest.test_case "ext2 round trip" `Quick (roundtrip_test Extfs.Ext2);
          Alcotest.test_case "ext4 round trip" `Quick (roundtrip_test Extfs.Ext4);
          Alcotest.test_case "ext4-dax round trip" `Quick
            (roundtrip_test Extfs.Ext4_dax);
          Alcotest.test_case "indirect blocks" `Quick test_indirect_blocks;
          Alcotest.test_case "remount preserves" `Quick test_remount_preserves;
        ] );
      ( "journal",
        [
          Alcotest.test_case "ext4 commits at fsync" `Quick
            test_ext4_journal_commits;
          Alcotest.test_case "ext2 vs ext4 overhead" `Quick
            test_ext2_vs_ext4_journal_overhead;
        ] );
      ( "costs",
        [
          Alcotest.test_case "dax bypasses cache" `Quick
            test_ext4_dax_bypasses_page_cache_for_data;
          Alcotest.test_case "double copy slower than direct" `Quick
            test_double_copy_overhead_vs_direct;
        ] );
      ( "crash",
        [
          Alcotest.test_case "ext4 journal replay + fault" `Quick
            test_ext4_journal_replay_after_crash;
        ] );
      ( "mmap",
        [
          Alcotest.test_case "mmap/msync order and pin" `Quick
            test_mmap_msync_ordering;
        ] );
      ( "model",
        Testkit.qcheck_cases
          [
            extfs_model_prop Extfs.Ext2 "ext2 matches model";
            extfs_model_prop Extfs.Ext4 "ext4 matches model";
            extfs_model_prop Extfs.Ext4_dax "ext4-dax matches model";
          ] );
    ]
