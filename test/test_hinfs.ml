(* HiNFS tests: write buffering, read consistency between DRAM and NVMM,
   CLFW, the Buffer Benefit Model, watermark-driven writeback, ordered-mode
   crash consistency, and the ablation knobs. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module H = Hinfs.Fs
module Hconfig = Hinfs.Hconfig
module Clbitmap = Hinfs.Clbitmap
module Errno = Hinfs_vfs.Errno
module Types = Hinfs_vfs.Types
module Vfs = Hinfs_vfs.Vfs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let root = Layout.root_ino

let read_back fs ~ino ~off ~len =
  let buf = Bytes.create len in
  let n = H.read fs ~ino ~off ~len ~into:buf ~into_off:0 in
  (Bytes.sub buf 0 n, n)

(* --- clbitmap --- *)

let test_clbitmap_ranges () =
  let m = Clbitmap.of_byte_range ~cacheline_size:64 ~off:0 ~len:4096 in
  check_int "full block" 64 (Clbitmap.count m);
  let m = Clbitmap.of_byte_range ~cacheline_size:64 ~off:100 ~len:8 in
  check_int "within one line" 1 (Clbitmap.count m);
  check_bool "line 1" true (Clbitmap.mem m 1);
  let m = Clbitmap.of_byte_range ~cacheline_size:64 ~off:60 ~len:8 in
  check_int "straddles two lines" 2 (Clbitmap.count m);
  check_int "empty" 0 (Clbitmap.count (Clbitmap.of_byte_range ~cacheline_size:64 ~off:0 ~len:0))

let test_clbitmap_boundary_partials () =
  let p = Clbitmap.boundary_partials ~cacheline_size:64 ~off:0 ~len:4096 in
  check_int "aligned write has no partials" 0 (Clbitmap.count p);
  let p = Clbitmap.boundary_partials ~cacheline_size:64 ~off:0 ~len:112 in
  (* Paper's example (§3.2.1): writing 0..112 needs only the second line
     fetched. *)
  check_int "one partial line" 1 (Clbitmap.count p);
  check_bool "it is line 1" true (Clbitmap.mem p 1);
  let p = Clbitmap.boundary_partials ~cacheline_size:64 ~off:30 ~len:20 in
  check_int "head partial only" 1 (Clbitmap.count p);
  let p = Clbitmap.boundary_partials ~cacheline_size:64 ~off:30 ~len:100 in
  check_int "head and tail partial" 2 (Clbitmap.count p)

let test_clbitmap_runs () =
  let m = Clbitmap.add_range Clbitmap.empty ~first:2 ~last:5 in
  let m = Clbitmap.add_range m ~first:10 ~last:10 in
  let runs = ref [] in
  Clbitmap.iter_runs m ~nlines:12 (fun ~first ~count ~set ->
      runs := (first, count, set) :: !runs);
  Alcotest.(check (list (triple int int bool)))
    "runs"
    [ (0, 2, false); (2, 4, true); (6, 4, false); (10, 1, true); (11, 1, false) ]
    (List.rev !runs);
  check_int "count" 5 (Clbitmap.count m);
  check_int "full mask 64" 64 (Clbitmap.count (Clbitmap.full_mask 64))

(* [count], [iter_runs] and [iter_set_runs] work on whole words; these are
   their definitions bit by bit. *)
let naive_count m =
  List.length (List.filter (Clbitmap.mem m) (List.init 64 Fun.id))

let naive_runs m ~nlines =
  let rec go i acc =
    if i >= nlines then List.rev acc
    else
      let set = Clbitmap.mem m i in
      let rec stop j = if j < nlines && Clbitmap.mem m j = set then stop (j + 1) else j in
      let j = stop (i + 1) in
      go j ((i, j - i, set) :: acc)
  in
  go 0 []

(* Uniform words have short runs; unions of ranges have long ones and
   bits 0 and 63 often set. *)
let bitmap_gen =
  QCheck.Gen.(
    oneof
      [
        ui64;
        map
          (List.fold_left
             (fun m (a, b) ->
               Clbitmap.add_range m ~first:(min a b) ~last:(max a b))
             Clbitmap.empty)
          (list_size (int_range 0 4) (pair (int_bound 63) (int_bound 63)));
      ])

let clbitmap_words_prop =
  QCheck.Test.make ~name:"clbitmap word arithmetic matches bit by bit"
    ~count:2000
    (QCheck.make
       ~print:QCheck.Print.(pair (fun m -> Printf.sprintf "0x%Lx" m) int)
       QCheck.Gen.(pair bitmap_gen (int_range 0 64)))
    (fun (m, nlines) ->
      let runs = ref [] and set_runs = ref [] in
      Clbitmap.iter_runs m ~nlines (fun ~first ~count ~set ->
          runs := (first, count, set) :: !runs);
      Clbitmap.iter_set_runs m ~nlines (fun ~first ~count ->
          set_runs := (first, count) :: !set_runs);
      let want = naive_runs m ~nlines in
      Clbitmap.count m = naive_count m
      && List.rev !runs = want
      && List.rev !set_runs
         = List.filter_map
             (fun (first, count, set) -> if set then Some (first, count) else None)
             want)

(* --- buffering basics --- *)

let test_lazy_write_buffered_not_persistent () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~stats ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Testkit.pattern_bytes ~seed:1 8192 in
      let before = Stats.nvmm_bytes_written stats in
      ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:8192 ~sync:false);
      (* Data sits in DRAM. NVMM traffic is only metadata: a zeroed index
         node (4 KB, the file grew past one block) plus undo-log entries —
         never the 8 KB of data. *)
      check_bool "buffered" true (H.is_block_buffered fs ~ino ~fblock:0);
      check_bool "no data written to NVMM" true
        (Int64.to_int (Int64.sub (Stats.nvmm_bytes_written stats) before)
        < 4096 + 2048);
      (* Reads see the buffered data. *)
      let data, n = read_back fs ~ino ~off:0 ~len:8192 in
      check_int "read length" 8192 n;
      Testkit.check_bytes "read from DRAM buffer" payload data;
      check_int "two lazy writes counted" 2 (Stats.lazy_writes stats);
      check_int "buffered blocks" 2 (H.buffered_blocks fs))

let test_fsync_persists_buffered_data () =
  Testkit.run_sim (fun engine ->
      let d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Testkit.pattern_bytes ~seed:2 10_000 in
      ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:10_000 ~sync:false);
      check_int "pending txn open" 1 (H.pending_txns fs);
      H.fsync fs ~ino;
      check_int "pending txn committed" 0 (H.pending_txns fs);
      check_int "no dirty blocks" 0 (H.dirty_buffered_blocks fs);
      (* Crash: everything needed must be on the medium. *)
      Device.crash d;
      let fs2 = Pmfs.mount d () in
      let ino2 = Option.get (Pmfs.lookup fs2 ~dir:root "f") in
      let buf = Bytes.create 10_000 in
      let n = Pmfs.read fs2 ~ino:ino2 ~off:0 ~len:10_000 ~into:buf ~into_off:0 in
      check_int "size durable" 10_000 n;
      Testkit.check_bytes "data durable" payload buf)

let test_ordered_mode_crash_before_fsync () =
  Testkit.run_sim (fun engine ->
      let d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      (* Establish a committed 4 KB prefix. Overwrite it several times
         before the fsync so the Benefit Model sees coalescing and keeps
         the file Lazy-Persistent (otherwise the extension below would be
         routed direct and committed eagerly). *)
      let prefix = Testkit.pattern_bytes ~seed:3 4096 in
      for _ = 1 to 10 do
        ignore (H.write fs ~ino ~off:0 ~src:prefix ~src_off:0 ~len:4096 ~sync:false)
      done;
      H.fsync fs ~ino;
      (* Extend lazily, crash before any sync: the extension's metadata
         must roll back — no committed pointer may reference unwritten
         data (ordered mode). *)
      let ext = Testkit.pattern_bytes ~seed:4 8192 in
      ignore (H.write fs ~ino ~off:4096 ~src:ext ~src_off:0 ~len:8192 ~sync:false);
      Device.crash d;
      let fs2 = Pmfs.mount d () in
      let ino2 = Option.get (Pmfs.lookup fs2 ~dir:root "f") in
      check_int "size rolled back to last sync" 4096
        (Pmfs.inode_size fs2 ino2);
      let buf = Bytes.create 4096 in
      ignore (Pmfs.read fs2 ~ino:ino2 ~off:0 ~len:4096 ~into:buf ~into_off:0);
      Testkit.check_bytes "prefix intact" prefix buf)

let test_read_merges_dram_and_nvmm () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      (* Persist a full block, evict it from the buffer via fsync+unmount
         trickery: use direct PMFS write to place data only in NVMM. *)
      let nvmm_data = Bytes.make 4096 'N' in
      ignore
        (Pmfs.write_direct (H.pmfs fs) ~ino ~off:0 ~src:nvmm_data ~src_off:0
           ~len:4096);
      (* Lazy-write the middle cachelines: they land in DRAM only. *)
      let dram_data = Bytes.make 640 'D' in
      ignore (H.write fs ~ino ~off:1024 ~src:dram_data ~src_off:0 ~len:640 ~sync:false);
      (* A full-block read must merge: N...D...N *)
      let data, n = read_back fs ~ino ~off:0 ~len:4096 in
      check_int "length" 4096 n;
      let expected = Bytes.make 4096 'N' in
      Bytes.fill expected 1024 640 'D';
      Testkit.check_bytes "merged DRAM+NVMM view" expected data)

let test_unaligned_buffered_write_fetches_boundaries () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let base = Bytes.make 4096 'B' in
      ignore (Pmfs.write_direct (H.pmfs fs) ~ino ~off:0 ~src:base ~src_off:0 ~len:4096);
      (* Unaligned lazy write within the block. *)
      let patch = Bytes.make 100 'P' in
      ignore (H.write fs ~ino ~off:30 ~src:patch ~src_off:0 ~len:100 ~sync:false);
      let data, _ = read_back fs ~ino ~off:0 ~len:4096 in
      let expected = Bytes.make 4096 'B' in
      Bytes.fill expected 30 100 'P';
      Testkit.check_bytes "boundary bytes preserved" expected data;
      (* And after flushing, NVMM holds the same view. *)
      H.fsync fs ~ino;
      let data2, _ = read_back fs ~ino ~off:0 ~len:4096 in
      Testkit.check_bytes "after flush" expected data2)

let test_write_coalescing_reduces_nvmm_traffic () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~stats ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Bytes.make 4096 'x' in
      (* 10 overwrites of the same block, then one fsync: only ~4 KB of
         data reaches NVMM, not 40 KB. *)
      for i = 0 to 9 do
        Bytes.fill payload 0 4096 (Char.chr (Char.code 'a' + i));
        ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096 ~sync:false)
      done;
      let before = Stats.nvmm_bytes_written stats in
      H.fsync fs ~ino;
      let flushed = Int64.to_int (Int64.sub (Stats.nvmm_bytes_written stats) before) in
      check_bool "one block of data flushed" true
        (flushed >= 4096 && flushed < 8192);
      let data, _ = read_back fs ~ino ~off:0 ~len:4096 in
      Testkit.check_bytes "last write wins" payload data)

(* --- CLFW vs NCLFW (Fig 9 mechanism) --- *)

let nvmm_flush_bytes_for ~clfw =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let hcfg = { Testkit.small_hcfg with Hconfig.clfw } in
      let _d, fs = Testkit.make_hinfs ~stats ~hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      (* Persist a block first so fetches have a source. *)
      let base = Bytes.make 4096 'B' in
      ignore (Pmfs.write_direct (H.pmfs fs) ~ino ~off:0 ~src:base ~src_off:0 ~len:4096);
      let before = Stats.nvmm_bytes_written stats in
      (* Dirty 64 bytes, then fsync. *)
      let small = Bytes.make 64 'S' in
      ignore (H.write fs ~ino ~off:128 ~src:small ~src_off:0 ~len:64 ~sync:false);
      H.fsync fs ~ino;
      Int64.to_int (Int64.sub (Stats.nvmm_bytes_written stats) before))

let test_clfw_flushes_only_dirty_lines () =
  let with_clfw = nvmm_flush_bytes_for ~clfw:true in
  let without = nvmm_flush_bytes_for ~clfw:false in
  check_bool "clfw flushes one line" true (with_clfw < 512);
  check_bool "nclfw flushes whole block" true (without >= 4096);
  check_bool "clfw strictly better" true (with_clfw * 8 < without)

let test_clfw_fetch_granularity () =
  (* An unaligned write to an uncached NVMM-resident block reads only the
     boundary cachelines under CLFW, the whole block without it. *)
  let fetch_bytes ~clfw =
    let stats = Stats.create () in
    Testkit.run_sim (fun engine ->
        let hcfg = { Testkit.small_hcfg with Hconfig.clfw } in
        let _d, fs = Testkit.make_hinfs ~stats ~hcfg engine in
        let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
        let base = Bytes.make 4096 'B' in
        ignore (Pmfs.write_direct (H.pmfs fs) ~ino ~off:0 ~src:base ~src_off:0 ~len:4096);
        let before = Stats.nvmm_bytes_read stats in
        let patch = Bytes.make 100 'P' in
        ignore (H.write fs ~ino ~off:30 ~src:patch ~src_off:0 ~len:100 ~sync:false);
        Int64.to_int (Int64.sub (Stats.nvmm_bytes_read stats) before))
  in
  let clfw = fetch_bytes ~clfw:true in
  let nclfw = fetch_bytes ~clfw:false in
  check_int "clfw fetches two boundary lines" 128 clfw;
  check_int "nclfw fetches the whole block" 4096 nclfw

(* --- Buffer Benefit Model (Fig 6 mechanism) --- *)

let test_benefit_model_turns_block_eager () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~stats ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Bytes.make 4096 'x' in
      check_bool "starts lazy" false (H.block_state_eager fs ~ino ~fblock:0);
      (* Write once then fsync: N_cw = N_cf = 64, inequality violated ->
         Eager. *)
      ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096 ~sync:false);
      H.fsync fs ~ino;
      check_bool "eager after wasteful sync" true
        (H.block_state_eager fs ~ino ~fblock:0);
      (* The next asynchronous write to this block goes straight to NVMM. *)
      let before = Stats.nvmm_bytes_written stats in
      ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096 ~sync:false);
      let direct = Int64.to_int (Int64.sub (Stats.nvmm_bytes_written stats) before) in
      check_bool "eager write persisted immediately" true (direct >= 4096);
      check_int "no dirty buffered data left" 0 (H.dirty_buffered_blocks fs);
      check_int "eager writes counted" 1 (Stats.eager_writes stats))

let test_benefit_model_keeps_coalescing_lazy () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Bytes.make 4096 'x' in
      (* Many overwrites between syncs: N_cw = 20*64, N_cf = 64; inequality
         satisfied -> stays Lazy. *)
      for _ = 1 to 20 do
        ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096 ~sync:false)
      done;
      H.fsync fs ~ino;
      check_bool "stays lazy when coalescing pays" false
        (H.block_state_eager fs ~ino ~fblock:0))

let test_eager_state_decays () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Bytes.make 4096 'x' in
      ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096 ~sync:false);
      H.fsync fs ~ino;
      check_bool "eager" true (H.block_state_eager fs ~ino ~fblock:0);
      (* 6 virtual seconds without a sync: decays to lazy (default 5 s). *)
      Proc.delay 6_000_000_000L;
      check_bool "decayed to lazy" false (H.block_state_eager fs ~ino ~fblock:0))

let test_model_accuracy_stat () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~stats ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Bytes.make 4096 'x' in
      (* Repeated identical write->fsync cycles: after the first sync each
         prediction matches the previous one (accurate). *)
      for _ = 1 to 5 do
        ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096 ~sync:false);
        H.fsync fs ~ino
      done);
  check_int "four comparable predictions" 4 (Stats.bbm_predictions stats);
  check_bool "all accurate" true (Stats.bbm_accuracy stats = 1.0)

let test_sync_write_with_buffered_block_evicts () =
  Testkit.run_sim (fun engine ->
      let d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Bytes.make 4096 'L' in
      ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096 ~sync:false);
      check_bool "buffered" true (H.is_block_buffered fs ~ino ~fblock:0);
      (* Case-1 eager write to the buffered block: write to DRAM, then
         flush synchronously (§3.3.2's consistency rule). *)
      let sync_payload = Bytes.make 4096 'S' in
      ignore (H.write fs ~ino ~off:0 ~src:sync_payload ~src_off:0 ~len:4096 ~sync:true);
      check_int "nothing dirty after sync write" 0
        (H.dirty_buffered_blocks fs);
      let data, _ = read_back fs ~ino ~off:0 ~len:4096 in
      Testkit.check_bytes "sync write visible" sync_payload data;
      (* The sync write is durable: crash and verify on the image. *)
      let image = Device.snapshot d in
      let d2 =
        Device.of_snapshot (Device.engine d) (Stats.create ())
          (Device.config d) image
      in
      let fs2 = Pmfs.mount d2 () in
      let ino2 = Option.get (Pmfs.lookup fs2 ~dir:root "f") in
      let buf = Bytes.create 4096 in
      let n = Pmfs.read fs2 ~ino:ino2 ~off:0 ~len:4096 ~into:buf ~into_off:0 in
      check_int "durable size" 4096 n;
      Testkit.check_bytes "durable content" sync_payload buf)

(* A sparse block (only some cachelines ever written) must read as zeros
   around the data after fsync + crash — the first writeback completes the
   home block. *)
let test_sparse_block_home_completed_at_fsync () =
  Testkit.run_sim (fun engine ->
      let d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "sparse" in
      (* Dirty the medium first so stale bytes exist to leak. *)
      let free_probe = Pmfs.free_data_blocks (H.pmfs fs) in
      ignore free_probe;
      let junk_ino = Pmfs.create_file (H.pmfs fs) ~dir:root "junk" in
      let junk = Bytes.make 8192 'J' in
      ignore (Pmfs.write_direct (H.pmfs fs) ~ino:junk_ino ~off:0 ~src:junk ~src_off:0 ~len:8192);
      Pmfs.unlink (H.pmfs fs) ~dir:root "junk";
      (* Write 100 bytes mid-block, extend size past them, fsync. *)
      let data = Bytes.make 100 'D' in
      ignore (H.write fs ~ino ~off:1000 ~src:data ~src_off:0 ~len:100 ~sync:false);
      let tail = Bytes.make 10 'T' in
      ignore (H.write fs ~ino ~off:3000 ~src:tail ~src_off:0 ~len:10 ~sync:false);
      H.fsync fs ~ino;
      Device.crash d;
      let fs2 = Pmfs.mount d () in
      let ino2 = Option.get (Pmfs.lookup fs2 ~dir:root "sparse") in
      let buf = Bytes.create 3010 in
      let n = Pmfs.read fs2 ~ino:ino2 ~off:0 ~len:3010 ~into:buf ~into_off:0 in
      check_int "size durable" 3010 n;
      (* Never-written regions read as zeros, not stale junk. *)
      check_bool "prefix zeros" true
        (Bytes.sub_string buf 0 1000 = String.make 1000 '\000');
      Alcotest.(check string) "data" (Bytes.to_string data)
        (Bytes.sub_string buf 1000 100);
      check_bool "gap zeros" true
        (Bytes.sub_string buf 1100 1900 = String.make 1900 '\000'))

(* The write path's journal backpressure keeps a tiny journal from
   overflowing under a stream of lazy allocating writes. *)
let test_journal_backpressure () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let fs =
        H.mkfs_and_mount d ~journal_blocks:8 ~hcfg:Testkit.small_hcfg
          ~daemons:false ()
      in
      let h = H.handle fs in
      (* 8 blocks x 64 slots = 512 slots; these writes would need far more
         without backpressure-triggered commits. *)
      for i = 0 to 63 do
        let fd =
          h.Vfs.open_ (Printf.sprintf "/f%d" i) { Types.creat with Types.read = true }
        in
        let payload = Testkit.pattern_bytes ~seed:i (8 * 4096) in
        ignore (h.Vfs.write fd payload (8 * 4096));
        h.Vfs.close fd
      done;
      (* Spot-check content. *)
      let fd = h.Vfs.open_ "/f63" Types.rdonly in
      let buf = Bytes.create (8 * 4096) in
      ignore (h.Vfs.read fd buf (8 * 4096));
      Testkit.check_bytes "data survived backpressure"
        (Testkit.pattern_bytes ~seed:63 (8 * 4096))
        buf;
      h.Vfs.close fd)

(* Rename over an existing file drops the victim's buffers like unlink. *)
let test_rename_replace_drops_victim_buffers () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~stats ~hcfg:Testkit.small_hcfg engine in
      let h = H.handle fs in
      let fd = h.Vfs.open_ "/victim" Types.creat in
      ignore (h.Vfs.write fd (Bytes.make (4 * 4096) 'v') (4 * 4096));
      h.Vfs.close fd;
      let fd = h.Vfs.open_ "/new" Types.creat in
      ignore (h.Vfs.write fd (Bytes.make 4096 'n') 4096);
      h.Vfs.close fd;
      h.Vfs.rename "/new" "/victim";
      check_bool "victim buffers dropped" true (Stats.dead_block_drops stats >= 4);
      let fd = h.Vfs.open_ "/victim" Types.rdonly in
      let buf = Bytes.create 4096 in
      ignore (h.Vfs.read fd buf 4096);
      Alcotest.(check char) "renamed content" 'n' (Bytes.get buf 0);
      h.Vfs.close fd)

(* --- HiNFS-WB ablation --- *)

let test_wb_mode_buffers_everything () =
  Testkit.run_sim (fun engine ->
      let hcfg = { Testkit.small_hcfg with Hconfig.checker = false } in
      let _d, fs = Testkit.make_hinfs ~hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Bytes.make 4096 'x' in
      (* fsync storms that would flip the checker: with the checker off the
         block keeps being buffered. *)
      for _ = 1 to 3 do
        ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096 ~sync:false);
        H.fsync fs ~ino
      done;
      ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096 ~sync:false);
      check_bool "still buffered under HiNFS-WB" true
        (H.is_block_buffered fs ~ino ~fblock:0))

(* --- watermarks, stalls, daemons --- *)

(* Whole blocks of one byte value share the medium's fill table of that
   byte, whether the buffer pool writes them back or an eager write stores
   them: writing them backs next to no host memory. *)
let test_constant_fill_footprint () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d, fs = Testkit.make_hinfs ~stats ~hcfg:Testkit.small_hcfg engine in
      let bs = (Device.config d).Config.block_size in
      let nblocks = 16 in
      let len = nblocks * bs in
      let write name c ~sync =
        let ino = Pmfs.create_file (H.pmfs fs) ~dir:root name in
        ignore
          (H.write fs ~ino ~off:0 ~src:(Bytes.make len c) ~src_off:0 ~len ~sync);
        ino
      in
      let before = Device.resident_pages d in
      let lazy_ino = write "lazy" 'h' ~sync:false in
      check_int "the lazy file is buffered" nblocks (H.buffered_blocks fs);
      H.fsync fs ~ino:lazy_ino;
      let eager_ino = write "eager" 'w' ~sync:true in
      check_int "the eager file went straight to NVMM" nblocks
        (Stats.eager_writes stats);
      (* Metadata (index nodes, the undo log) backs a few pages; a private
         page per data block would add 32. *)
      let grown = Device.resident_pages d - before in
      if grown > nblocks / 2 then
        Alcotest.failf "%d blocks of one byte backed %d pages" (2 * nblocks)
          grown;
      Device.crash d;
      let fs2 = Pmfs.mount d () in
      List.iter
        (fun (ino, c) ->
          let buf = Bytes.create len in
          ignore (Pmfs.read fs2 ~ino ~off:0 ~len ~into:buf ~into_off:0);
          Testkit.check_bytes "durable" (Bytes.make len c) buf)
        [ (lazy_ino, 'h'); (eager_ino, 'w') ])

let test_pool_exhaustion_inline_reclaim () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      (* Tiny pool: 16 blocks, no daemons -> inline reclaim on the write
         path. *)
      let hcfg = { Testkit.small_hcfg with Hconfig.buffer_bytes = 16 * 4096 } in
      let _d, fs = Testkit.make_hinfs ~stats ~hcfg engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Testkit.pattern_bytes ~seed:5 (64 * 4096) in
      ignore
        (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:(64 * 4096)
           ~sync:false);
      (* All 64 blocks were written through a 16-block pool. *)
      check_bool "stalled at least once" true (Stats.writeback_stalls stats > 0);
      check_bool "evictions happened" true (Stats.evictions stats > 0);
      let data, n = read_back fs ~ino ~off:0 ~len:(64 * 4096) in
      check_int "full read" (64 * 4096) n;
      Testkit.check_bytes "data correct across evictions" payload data)

let test_daemon_reclaims_to_high_watermark () =
  Testkit.run_sim (fun engine ->
      let hcfg =
        {
          Testkit.small_hcfg with
          Hconfig.buffer_bytes = 32 * 4096;
          Hconfig.writeback_threads = 1;
        }
      in
      let _d, fs = Testkit.make_hinfs ~hcfg ~daemons:true engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      (* Fill the pool past the 5% low watermark (free <= 1 of 32) so the
         allocation path signals the writeback daemon. *)
      let payload = Testkit.pattern_bytes ~seed:6 (31 * 4096) in
      ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:(31 * 4096) ~sync:false);
      check_bool "pool nearly full" true (H.free_buffer_blocks fs <= 1);
      (* Let the daemons run (they wake on the low-watermark signal). *)
      Proc.delay 1_000_000_000L;
      (* high watermark = 20% of 32 = 6 free. *)
      check_bool "reclaimed to high watermark" true
        (H.free_buffer_blocks fs >= 6);
      (* Data still correct (flushed + readable from NVMM/DRAM mix). *)
      let data, _ = read_back fs ~ino ~off:0 ~len:(31 * 4096) in
      Testkit.check_bytes "data survives reclaim" payload data;
      H.unmount fs)

let test_age_flush_cleans_old_blocks () =
  Testkit.run_sim (fun engine ->
      let hcfg =
        { Testkit.small_hcfg with Hconfig.age_flush_ns = 2_000_000_000L }
      in
      let _d, fs = Testkit.make_hinfs ~hcfg ~daemons:true engine in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "f" in
      let payload = Bytes.make 4096 'x' in
      ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:4096 ~sync:false);
      check_int "dirty" 1 (H.dirty_buffered_blocks fs);
      (* After the age threshold plus a periodic wakeup, the daemon cleans
         (but does not evict) the block. *)
      Proc.delay 8_000_000_000L;
      check_int "cleaned by age flush" 0 (H.dirty_buffered_blocks fs);
      check_bool "still buffered" true (H.is_block_buffered fs ~ino ~fblock:0);
      check_int "ordered txn committed by daemon" 0 (H.pending_txns fs);
      H.unmount fs)

(* Signalled timed waits cancel their timers, so a populate under running
   daemons queues at most one event per process instead of one dead timer
   per signal. *)
let test_daemons_queue_only_live_events () =
  Testkit.run_sim (fun engine ->
      let _d, fs =
        Testkit.make_hinfs ~hcfg:Testkit.small_hcfg ~daemons:true engine
      in
      let h = H.handle fs in
      let payload = Testkit.pattern_bytes ~seed:8 6000 in
      let excess = ref 0 in
      for i = 0 to 199 do
        let fd = h.Vfs.open_ (Printf.sprintf "/p%d" i) Types.creat in
        ignore (h.Vfs.write fd payload 6000);
        h.Vfs.fsync fd;
        h.Vfs.close fd;
        excess :=
          max !excess (Engine.pending engine - Engine.live_processes engine)
      done;
      check_int "events beyond one per process" 0 !excess;
      H.unmount fs)

let test_unlink_drops_dirty_buffers_without_writeback () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let fs = H.mkfs_and_mount d ~journal_blocks:32 ~hcfg:Testkit.small_hcfg ~daemons:false () in
      let h = H.handle fs in
      (* Prime the root directory's dirent block so it does not read as a
         leak below. *)
      let wfd = h.Vfs.open_ "/warmup" Types.creat in
      h.Vfs.close wfd;
      h.Vfs.unlink "/warmup";
      let free0 = Pmfs.free_data_blocks (H.pmfs fs) in
      let fd = h.Vfs.open_ "/doomed" Types.creat in
      let payload = Testkit.pattern_bytes ~seed:7 (20 * 4096) in
      ignore (h.Vfs.write fd payload (20 * 4096));
      h.Vfs.close fd;
      let before = Stats.nvmm_bytes_written stats in
      h.Vfs.unlink "/doomed";
      let delta = Int64.to_int (Int64.sub (Stats.nvmm_bytes_written stats) before) in
      (* No data writeback happened for the dying file (only journal
         cleanup traffic). *)
      check_bool "no data written back on unlink" true (delta < 8192);
      check_int "dead blocks dropped" 20 (Stats.dead_block_drops stats);
      (* The NVMM home blocks allocated under the aborted transaction were
         reclaimed. *)
      check_int "NVMM space fully reclaimed" free0
        (Pmfs.free_data_blocks (H.pmfs fs));
      check_int "no leaked buffer blocks" 0 (H.buffered_blocks fs))

(* A dying file's buffered lines must never reach the home block a new
   file reuses: PMFS hands the lowest free block out again at once, so a
   stale writeback would land on live data straight away. *)
let test_reused_home_block_no_stale_writeback () =
  Testkit.run_sim (fun engine ->
      let d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let home ino = Pmfs.Data.lookup_block (H.pmfs fs) ~ino ~fblock:0 in
      let old_ino = Pmfs.create_file (H.pmfs fs) ~dir:root "old" in
      let stale = Bytes.make 8192 's' in
      ignore
        (H.write fs ~ino:old_ino ~off:0 ~src:stale ~src_off:0 ~len:8192
           ~sync:false);
      (* Writeback flushes the file, then block 0 is re-dirtied: one home
         block holds flushed lines and has dirty lines still buffered. *)
      H.flush_file fs (H.file_state fs old_ino) ~evict:false;
      ignore
        (H.write fs ~ino:old_ino ~off:100 ~src:stale ~src_off:0 ~len:1000
           ~sync:false);
      check_bool "dirty lines buffered" true (H.dirty_buffered_blocks fs > 0);
      let freed = home old_ino in
      H.unlink fs ~dir:root "old";
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "new" in
      let fresh = Testkit.pattern_bytes ~seed:21 4096 in
      ignore
        (H.write fs ~ino ~off:0 ~src:fresh ~src_off:0 ~len:4096 ~sync:false);
      Alcotest.(check (option int)) "new file reuses the home block" freed
        (home ino);
      H.fsync fs ~ino;
      (* Push the whole pool through writeback: a buffer the dead file left
         behind would be flushed onto the reused block now. *)
      let filler = Pmfs.create_file (H.pmfs fs) ~dir:root "filler" in
      let chunk = Bytes.make 65536 'f' in
      for i = 0 to (2 * Testkit.small_hcfg.Hconfig.buffer_bytes / 65536) - 1 do
        ignore
          (H.write fs ~ino:filler ~off:(i * 65536) ~src:chunk ~src_off:0
             ~len:65536 ~sync:false)
      done;
      H.sync_all fs;
      H.unmount fs;
      let fs2 = Pmfs.mount d () in
      check_int "clean unmount" 0 (Pmfs.recovered_txns fs2);
      let ino2 = Option.get (Pmfs.lookup fs2 ~dir:root "new") in
      let buf = Bytes.create 4096 in
      check_int "size" 4096
        (Pmfs.read fs2 ~ino:ino2 ~off:0 ~len:4096 ~into:buf ~into_off:0);
      Testkit.check_bytes "new file's bytes" fresh buf;
      let report = Hinfs_fsck.Fsck.check_pmfs fs2 in
      if not (Hinfs_fsck.Fsck.ok report) then
        Alcotest.failf "fsck: %a" Hinfs_fsck.Fsck.pp_report report)

let test_unmount_flushes_everything () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let fs = H.mkfs_and_mount d ~journal_blocks:32 ~hcfg:Testkit.small_hcfg ~daemons:true () in
      let ino = Pmfs.create_file (H.pmfs fs) ~dir:root "persist" in
      let payload = Testkit.pattern_bytes ~seed:8 50_000 in
      ignore (H.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:50_000 ~sync:false);
      H.unmount fs;
      (* Remount as plain PMFS and verify everything is there. *)
      let fs2 = Pmfs.mount d () in
      check_int "clean unmount" 0 (Pmfs.recovered_txns fs2);
      let ino2 = Option.get (Pmfs.lookup fs2 ~dir:root "persist") in
      let buf = Bytes.create 50_000 in
      let n = Pmfs.read fs2 ~ino:ino2 ~off:0 ~len:50_000 ~into:buf ~into_off:0 in
      check_int "size" 50_000 n;
      Testkit.check_bytes "data flushed at unmount" payload buf)

(* --- mmap --- *)

let test_mmap_flushes_and_pins_eager () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~hcfg:Testkit.small_hcfg engine in
      let h = H.handle fs in
      let fd = h.Vfs.open_ "/m" { Types.creat with Types.read = true } in
      let payload = Testkit.pattern_bytes ~seed:9 8192 in
      ignore (h.Vfs.write fd payload 8192);
      let ino = (h.Vfs.fstat fd).Types.ino in
      check_bool "buffered before mmap" true (H.buffered_blocks fs > 0);
      h.Vfs.mmap fd;
      check_int "flushed and evicted at mmap" 0 (H.buffered_blocks fs);
      check_bool "pinned eager" true (H.block_state_eager fs ~ino ~fblock:0);
      (* Writes while mmapped stay direct. *)
      ignore (h.Vfs.pwrite fd ~off:0 payload 4096);
      check_bool "not re-buffered" false (H.is_block_buffered fs ~ino ~fblock:0);
      h.Vfs.munmap fd;
      Proc.delay 6_000_000_000L;
      check_bool "lazy again after munmap + decay" false
        (H.block_state_eager fs ~ino ~fblock:0);
      h.Vfs.close fd)

(* --- concurrency --- *)

let test_concurrent_writers_shared_small_pool () =
  Testkit.run_sim (fun engine ->
      let hcfg =
        { Testkit.small_hcfg with Hconfig.buffer_bytes = 24 * 4096 }
      in
      let _d, fs = Testkit.make_hinfs ~hcfg ~daemons:true engine in
      let h = H.handle fs in
      for i = 0 to 5 do
        Proc.spawn (fun () ->
            let path = Printf.sprintf "/w%d" i in
            let fd = h.Vfs.open_ path { Types.creat with Types.read = true } in
            let payload = Testkit.pattern_bytes ~seed:(50 + i) (16 * 4096) in
            ignore (h.Vfs.write fd payload (16 * 4096));
            h.Vfs.fsync fd;
            h.Vfs.seek fd 0;
            let buf = Bytes.create (16 * 4096) in
            ignore (h.Vfs.read fd buf (16 * 4096));
            Testkit.check_bytes "concurrent round trip" payload buf;
            h.Vfs.close fd)
      done;
      (* Give everything time to finish, then stop daemons. *)
      Proc.delay 60_000_000_000L;
      H.unmount fs)

(* --- randomized model test --- *)

let hinfs_model_prop =
  QCheck.Test.make ~name:"hinfs matches model under random ops + daemons"
    ~count:25
    QCheck.(small_nat)
    (fun seed ->
      Testkit.run_sim (fun engine ->
          let hcfg =
            { Testkit.small_hcfg with Hconfig.buffer_bytes = 32 * 4096 }
          in
          let _d, fs = Testkit.make_hinfs ~hcfg ~daemons:true engine in
          let h = H.handle fs in
          let rng = Rng.create ~seed:(Int64.of_int ((seed * 977) + 3)) in
          let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
          let paths = Array.init 6 (fun i -> Printf.sprintf "/r%d" i) in
          let ok = ref true in
          for step = 0 to 250 do
            let path = Rng.pick rng paths in
            (match Rng.int rng 7 with
            | 0 | 1 ->
              let len = Rng.int rng 20_000 in
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
                let off = Rng.int rng (size + 5000) in
                let len = 1 + Rng.int rng 6000 in
                let payload = Testkit.pattern_bytes ~seed:(step + 13) len in
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
            | 5 ->
              (* let virtual time pass: daemons run *)
              Proc.delay (Int64.of_int (Rng.int rng 3_000_000_000))
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
                then ok := false))
          done;
          (* Final verification after unmount+remount via PMFS. *)
          h.Vfs.sync_all ();
          Hashtbl.iter
            (fun path content ->
              let fd = h.Vfs.open_ path Types.rdonly in
              let buf = Bytes.create (Bytes.length content) in
              let n = h.Vfs.pread fd ~off:0 buf (Bytes.length buf) in
              if n <> Bytes.length content || not (Bytes.equal buf content)
              then ok := false;
              h.Vfs.close fd)
            model;
          H.unmount fs;
          !ok))

(* Crash consistency property: at a random moment, crash; the remounted
   file system must be consistent (mountable, readable, sizes sane), and
   any file that was fsynced and untouched afterwards must hold exactly
   its synced content. *)
let hinfs_crash_prop =
  QCheck.Test.make ~name:"hinfs ordered-mode crash consistency" ~count:20
    QCheck.(pair small_nat (int_bound 3_000_000))
    (fun (seed, crash_at) ->
      Testkit.run_sim (fun engine ->
          let d = Testkit.make_device engine in
          let fs =
            H.mkfs_and_mount d ~journal_blocks:32 ~hcfg:Testkit.small_hcfg
              ~daemons:false ()
          in
          let rng = Rng.create ~seed:(Int64.of_int ((seed * 41) + 11)) in
          (* Per-path synced contents, updated only at fsync boundaries. A
             path's entry is removed as soon as it is touched again, so an
             entry present at crash time means "fsynced and untouched". *)
          let synced : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
          let h = H.handle fs in
          let crashed = ref false in
          Proc.spawn (fun () ->
              try
                for step = 0 to 120 do
                  if !crashed then raise Exit;
                  let path = Printf.sprintf "/c%d" (Rng.int rng 6) in
                  match Rng.int rng 3 with
                  | 0 ->
                    Hashtbl.remove synced path;
                    let len = 1 + Rng.int rng 16_000 in
                    let payload = Testkit.pattern_bytes ~seed:step len in
                    let fd =
                      h.Vfs.open_ path { Types.creat with Types.truncate = true }
                    in
                    ignore (h.Vfs.write fd payload len);
                    h.Vfs.close fd
                  | 1 -> (
                    match h.Vfs.exists path with
                    | false -> ()
                    | true ->
                      let fd = h.Vfs.open_ path Types.rdwr in
                      h.Vfs.fsync fd;
                      let st = h.Vfs.fstat fd in
                      let buf = Bytes.create st.Types.size in
                      ignore (h.Vfs.pread fd ~off:0 buf st.Types.size);
                      h.Vfs.close fd;
                      if not !crashed then Hashtbl.replace synced path buf)
                  | _ -> (
                    Hashtbl.remove synced path;
                    try h.Vfs.unlink path with Errno.Fs_error _ -> ())
                done
              with
              | Engine.Stopped | Exit -> ()
              | _ when !crashed -> ());
          Proc.delay (Int64.of_int crash_at);
          (* Crash: freeze the persistent image and quiesce the op process
             (a real crash stops execution). *)
          let image = Device.snapshot d in
          crashed := true;
          let synced_at_crash = Hashtbl.copy synced in
          let d2 =
            Device.of_snapshot
              (Device.engine d)
              (Hinfs_stats.Stats.create ())
              (Device.config d) image
          in
          let fs2 = Pmfs.mount d2 () in
          let ok = ref true in
          (* Global consistency: every directory entry resolves and reads. *)
          List.iter
            (fun (_name, ino) ->
              match Pmfs.stat_of fs2 ino with
              | stat ->
                if stat.Types.size < 0 then ok := false;
                let buf = Bytes.create (min stat.Types.size 64_000) in
                (try
                   ignore
                     (Pmfs.read fs2 ~ino ~off:0 ~len:(Bytes.length buf)
                        ~into:buf ~into_off:0)
                 with _ -> ok := false)
              | exception _ -> ok := false)
            (Pmfs.readdir fs2 ~dir:root);
          (* Durability: files whose last pre-crash action was an fsync
             hold exactly their synced contents. *)
          Hashtbl.iter
            (fun path content ->
              let name = String.sub path 1 (String.length path - 1) in
              match Pmfs.lookup fs2 ~dir:root name with
              | None -> ok := false
              | Some ino ->
                let size = Pmfs.inode_size fs2 ino in
                if size <> Bytes.length content then ok := false
                else begin
                  let buf = Bytes.create size in
                  ignore
                    (Pmfs.read fs2 ~ino ~off:0 ~len:size ~into:buf ~into_off:0);
                  if not (Bytes.equal buf content) then ok := false
                end)
            synced_at_crash;
          !ok))

(* --- buffer pool --- *)

module Buffer_pool = Hinfs.Buffer_pool

(* A device for a pool's blocks, outside any simulation: only untimed
   block operations run on it. *)
let pool_device () = Testkit.make_device (Engine.create ())

(* The pool makes descriptors on first use but hands out ids exactly as an
   eager pool's FIFO free queue would: this is that queue. *)
let test_pool_matches_fifo_model () =
  let capacity = 64 in
  let pool = Buffer_pool.create (pool_device ()) ~capacity in
  let model = Queue.create () in
  for id = 0 to capacity - 1 do
    Queue.add id model
  done;
  let rng = Rng.create ~seed:27L in
  let in_use = ref [] in
  for step = 1 to 5000 do
    let free_one = !in_use <> [] && Rng.int rng 100 < 45 in
    if free_one then begin
      let i = Rng.int rng (List.length !in_use) in
      let b = List.nth !in_use i in
      in_use := List.filter (fun x -> x != b) !in_use;
      Buffer_pool.free pool b;
      Queue.add b.Buffer_pool.id model
    end
    else begin
      let got =
        Option.map
          (fun b -> b.Buffer_pool.id)
          (Buffer_pool.alloc pool ~ino:1 ~fblock:step ~home:0 ~now:0L)
      in
      let want = Queue.take_opt model in
      Alcotest.(check (option int)) (Fmt.str "step %d: id" step) want got;
      Option.iter
        (fun id -> in_use := Buffer_pool.block pool id :: !in_use)
        got
    end;
    check_int (Fmt.str "step %d: free_count" step) (Queue.length model)
      (Buffer_pool.free_count pool);
    check_int (Fmt.str "step %d: used_count" step) (List.length !in_use)
      (Buffer_pool.used_count pool)
  done

let test_empty_pool_is_small () =
  let dev = pool_device () in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let pool = Buffer_pool.create dev ~capacity:(1 lsl 20) in
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. before in
  check_int "capacity" (1 lsl 20) (Buffer_pool.capacity (Sys.opaque_identity pool));
  check_bool (Fmt.str "a 2^20-block pool allocates %.0f B, under 1 KB" allocated)
    true (allocated < 1024.)

(* --- long-lived state is updated in place ---

   The block descriptors and the benefit model live as long as the mount,
   in the major heap. Updating them must allocate nothing: a boxed value
   stored into them would be promoted by the next minor collection and
   die in the major heap. *)

let test_block_bitmaps_no_alloc () =
  let pool = Buffer_pool.create (pool_device ()) ~capacity:4 in
  let b =
    Option.get (Buffer_pool.alloc pool ~ino:1 ~fblock:0 ~home:0 ~now:0L)
  in
  let lines = Clbitmap.of_byte_range ~cacheline_size:64 ~off:100 ~len:1000 in
  let full = Clbitmap.full_mask 64 in
  let now = Sys.opaque_identity 12_345L in
  let became_dirty = ref 0 and became_clean = ref 0 in
  Testkit.check_no_alloc "block bitmap and last-write updates" (fun () ->
      for _ = 1 to 1000 do
        if Buffer_pool.add_dirty b lines then incr became_dirty;
        Buffer_pool.add_present b lines;
        if Buffer_pool.clean_lines b lines then incr became_clean;
        Buffer_pool.set_home_valid b full;
        Buffer_pool.clear_dirty b;
        Buffer_pool.touch_written pool b ~now
      done);
  check_int "each round dirties the clean block" 2000 !became_dirty;
  check_int "and cleans it" 2000 !became_clean;
  check_bool "present" true (Clbitmap.equal lines (Buffer_pool.present b));
  check_bool "home valid" true (Clbitmap.equal full (Buffer_pool.home_valid b));
  check_bool "last write" true (Int64.equal now (Buffer_pool.last_written b))

let test_benefit_record_no_alloc () =
  let model = Hinfs.Benefit.create_file_model () in
  let lines = Clbitmap.of_byte_range ~cacheline_size:64 ~off:0 ~len:256 in
  Testkit.check_no_alloc "Benefit.record_write on a known block" (fun () ->
      for _ = 1 to 1000 do
        Hinfs.Benefit.record_write model 3 ~lines
      done);
  (* 2001 writes of 4 lines, whose ghost bitmap holds 4 lines: buffering
     wins, so the block stays Lazy-Persistent. *)
  check_int "one block evaluated" 1
    (Hinfs.Benefit.on_sync model ~now:1L ~l_dram:10 ~l_nvmm:200
       ~stats:(Stats.create ()));
  check_bool "lazy" false
    (Hinfs.Benefit.is_eager model 3 ~now:1L ~eager_decay_ns:1_000L)

let test_stats_no_alloc () =
  let st = Stats.create () in
  let ns = Sys.opaque_identity 200 in
  Testkit.check_no_alloc "device stats accumulators" (fun () ->
      for _ = 1 to 1000 do
        Stats.add_time st Stats.Journal ns;
        Stats.add_nvmm_written ~background:true st 64;
        Stats.add_nvmm_read st 64
      done);
  check_bool "time" true (Int64.equal 400_000L (Stats.time st Stats.Journal));
  check_bool "bytes" true
    (Int64.equal 128_000L (Stats.nvmm_bytes_written_bg st))

(* --- the shared-line buffer ---

   A block shares immutable lines with its home's medium, and keeps
   private only the lines written since it last handed them over. A
   random sequence of block and device operations runs over one block and
   its home page, next to a flat model: the block's bytes, the medium's,
   and the CPU cache's coherent view. After every step the block reads as
   the model, and the medium, every snapshot taken and every crash image
   read as theirs: a line written in place while shared would change one
   of them. A block whose lines are one fill line shares the device's fill
   table too; ops that rewrite a uniform block's own bytes ([L_same]) and
   write the whole block back ([L_sync]) take it from uniform to private
   and back. Every fill table in use must stay whole, a block on a fill
   table has no private line, and a block written back whole while it
   reads as one byte value is back on that value's fill table. *)

type line_op =
  | L_write of int * int * int  (** offset, length, payload *)
  | L_whole of int  (** the whole block, payload *)
  | L_read of int * int
  | L_fetch of int * int  (** first line, count *)
  | L_zeros of int * int
  | L_flush of int * int
  | L_same of int * int  (** store the bytes the block holds there *)
  | L_sync  (** write every line back *)
  | L_evict  (** write every line back, then free the block *)
  | L_free
  | L_cached of int * int * int  (** cached store into the home *)
  | L_clflush of int * int
  | L_fence
  | L_snapshot
  | L_crash of int  (** a crash image (choice seed), then a crash *)

let show_line_op = function
  | L_write (o, l, p) -> Fmt.str "write %d+%d #%d" o l p
  | L_whole p -> Fmt.str "whole #%d" p
  | L_read (o, l) -> Fmt.str "read %d+%d" o l
  | L_fetch (f, c) -> Fmt.str "fetch %d+%d" f c
  | L_zeros (f, c) -> Fmt.str "zeros %d+%d" f c
  | L_flush (f, c) -> Fmt.str "flush %d+%d" f c
  | L_same (o, l) -> Fmt.str "same %d+%d" o l
  | L_sync -> "sync"
  | L_evict -> "evict"
  | L_free -> "free"
  | L_cached (o, l, p) -> Fmt.str "cached %d+%d #%d" o l p
  | L_clflush (f, c) -> Fmt.str "clflush %d+%d" f c
  | L_fence -> "fence"
  | L_snapshot -> "snapshot"
  | L_crash s -> Fmt.str "crash %d" s

(* Payload [p]: a run of one byte value when [p] is even (one of four,
   one of them the value page 2 of the medium is filled with), else
   pseudo-random bytes. *)
let line_payload p len =
  if p mod 2 = 0 then Bytes.make len "abcd".[p / 2 mod 4]
  else Testkit.pattern_bytes ~seed:p len

let line_op_gen =
  let open QCheck.Gen in
  let span =
    oneof
      [
        (let* off = int_bound 4095 in
         let* len = int_range 1 (4096 - off) in
         return (off, len));
        (let* first = int_bound 63 in
         let* count = int_range 1 (64 - first) in
         return (first * 64, count * 64));
      ]
  in
  let lines =
    let* first = int_bound 63 in
    let* count = int_range 1 (Int.min 8 (64 - first)) in
    return (first, count)
  in
  frequency
    [
      (6, map2 (fun (o, l) p -> L_write (o, l, p)) span (int_bound 9));
      (2, map (fun p -> L_whole p) (int_bound 9));
      (3, map (fun (o, l) -> L_read (o, l)) span);
      (3, map (fun (f, c) -> L_fetch (f, c)) lines);
      (1, map (fun (f, c) -> L_zeros (f, c)) lines);
      (4, map (fun (f, c) -> L_flush (f, c)) lines);
      (3, map (fun (o, l) -> L_same (o, l)) span);
      (2, return L_sync);
      (1, return L_evict);
      (1, return L_free);
      (2, map2 (fun (o, l) p -> L_cached (o, l, p)) span (int_bound 9));
      (2, map (fun (f, c) -> L_clflush (f, c)) lines);
      (2, return L_fence);
      (1, return L_snapshot);
      (1, map (fun s -> L_crash s) (int_bound 1000));
    ]

let run_line_ops engine ops =
  let module Pool = Buffer_pool in
  let config = { Config.default with Config.nvmm_size = 4 * 4096 } in
  let d = Testkit.make_device ~config engine in
  let size = config.Config.nvmm_size and bs = 4096 and ls = 64 in
  let cat = Stats.Write_access in
  let home = bs in
  (* Page 2 is the fill table of 'a', which block lines of 'a' share. *)
  Device.poke d ~addr:(2 * bs) ~src:(Bytes.make bs 'a') ~off:0 ~len:bs;
  Device.enable_recording d;
  let medium = Device.peek_persistent d ~addr:0 ~len:size in
  let view = Bytes.copy medium and cached = Array.make (size / ls) false in
  let pool = Pool.create d ~capacity:1 in
  let alloc () =
    Option.get (Pool.alloc pool ~ino:1 ~fblock:0 ~home:1 ~now:0L)
  in
  let b = ref (alloc ()) and model = ref (Bytes.make bs '\000') in
  let images = ref [] and bad = ref None and step = ref 0 in
  let fail what =
    if !bad = None then bad := Some (Fmt.str "op %d: %s" !step what)
  in
  let check what expected actual =
    if not (Bytes.equal expected actual) then fail what
  in
  let renew () =
    Pool.free pool !b;
    (* A freed block pins no line of the medium. *)
    let lines = !b.Pool.lines in
    if not (Array.for_all (fun l -> l == lines.(0)) lines) then
      fail "a freed block keeps its lines";
    b := alloc ();
    model := Bytes.make bs '\000'
  in
  let write_back first count =
    Pool.write_back ~background:false d ~cat !b ~addr:(home + (first * ls))
      ~first ~count;
    let run = Clbitmap.add_range Clbitmap.empty ~first ~last:(first + count - 1) in
    if not (Clbitmap.is_empty (Clbitmap.inter (Pool.own !b) run)) then
      fail "a line written back is still private";
    for i = first to first + count - 1 do
      cached.((home / ls) + i) <- false
    done;
    Bytes.blit !model (first * ls) medium (home + (first * ls)) (count * ls);
    Bytes.blit !model (first * ls) view (home + (first * ls)) (count * ls)
  in
  let store off len p =
    let src = line_payload p len in
    Pool.store d !b ~off ~src ~src_off:0 ~len;
    Bytes.blit src 0 !model off len;
    (* The block keeps none of its source. *)
    Bytes.fill src 0 len '\255'
  in
  List.iter
    (fun op ->
      incr step;
      (match op with
      | L_write (off, len, p) -> store off len p
      | L_whole p -> store 0 bs p
      | L_read (off, len) ->
        let into = Bytes.make (len + 2) '?' in
        Pool.load !b ~off ~len ~into ~into_off:1;
        check "read" (Bytes.sub !model off len) (Bytes.sub into 1 len)
      | L_fetch (first, count) ->
        Pool.fetch d ~cat !b ~addr:(home + (first * ls)) ~first ~count;
        Bytes.blit view (home + (first * ls)) !model (first * ls) (count * ls)
      | L_zeros (first, count) ->
        Pool.fill_zeros d !b ~first ~count;
        Bytes.fill !model (first * ls) (count * ls) '\000'
      | L_flush (first, count) -> write_back first count
      | L_same (off, len) ->
        let src = Bytes.sub !model off len in
        Pool.store d !b ~off ~src ~src_off:0 ~len
      | L_sync ->
        write_back 0 64;
        let c = Bytes.get !model 0 in
        if
          Bytes.for_all (Char.equal c) !model
          && !b.Pool.lines != Device.fill_table d c
        then fail "a block written back whole as one value owns a table"
      | L_evict ->
        write_back 0 64;
        renew ()
      | L_free -> renew ()
      | L_cached (off, len, p) ->
        let src = line_payload p len in
        Device.write_cached d ~cat ~addr:(home + off) ~src ~off:0 ~len;
        Bytes.blit src 0 view (home + off) len;
        for i = (home + off) / ls to (home + off + len - 1) / ls do
          cached.(i) <- true
        done
      | L_clflush (first, count) ->
        Device.clflush d ~cat ~addr:(home + (first * ls)) ~len:(count * ls);
        for i = (home / ls) + first to (home / ls) + first + count - 1 do
          if cached.(i) then
            Bytes.blit view (i * ls) medium (i * ls) ls;
          cached.(i) <- false
        done
      | L_fence -> Device.mfence d ~cat
      | L_snapshot -> images := (Device.snapshot d, Bytes.copy medium) :: !images
      | L_crash seed ->
        let state = Device.capture_crash_state d in
        let rng = Random.State.make [| seed |] in
        let choice =
          Array.of_list
            (List.map
               (fun (_, c) -> Random.State.int rng (Array.length c))
               state.Device.cs_choices)
        in
        let image = Device.materialize_crash_image state ~choice in
        let expected = Bytes.copy medium in
        List.iteri
          (fun i (idx, c) -> Bytes.blit c.(choice.(i)) 0 expected (idx * ls) ls)
          state.Device.cs_choices;
        check "crash image" expected (Device.image_to_bytes image);
        images :=
          (image, expected) :: (state.Device.cs_image, Bytes.copy medium)
          :: !images;
        (* DRAM and the CPU cache are lost. *)
        Device.crash d;
        Bytes.blit medium 0 view 0 size;
        Array.fill cached 0 (Array.length cached) false;
        renew ());
      let whole = Bytes.create bs in
      Pool.load !b ~off:0 ~len:bs ~into:whole ~into_off:0;
      check "block" !model whole;
      String.iter
        (fun c ->
          let fill = Device.fill_line d c in
          if
            not
              (Bytes.for_all (Char.equal c) fill
              && Array.for_all (fun l -> l == fill) (Device.fill_table d c))
          then fail (Fmt.str "the fill table of %C was written" c))
        "\000abcd";
      let lines = !b.Pool.lines in
      if
        lines == Device.fill_table d (Bytes.get lines.(0) 0)
        && not (Clbitmap.is_empty (Pool.own !b))
      then fail "a block on a fill table has a private line";
      check "medium" medium (Device.peek_persistent d ~addr:0 ~len:size);
      check "coherent view" view (Device.peek d ~addr:0 ~len:size);
      List.iter
        (fun (image, bytes) -> check "an image" bytes (Device.image_to_bytes image))
        !images)
    ops;
  !bad

let shared_line_buffer_prop =
  QCheck.Test.make ~name:"shared-line buffer matches a flat block" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list show_line_op)
       QCheck.Gen.(list_size (int_range 1 60) line_op_gen))
    (fun ops ->
      match Testkit.run_sim (fun engine -> run_line_ops engine ops) with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

(* Several MB of non-uniform data written and synced through HiNFS leave
   the pool with no private line: every clean block shares its lines with
   the medium instead of holding a second copy of them. *)
let test_clean_pool_holds_no_private_line () =
  Testkit.run_sim (fun engine ->
      let hcfg = { Hconfig.default with Hconfig.buffer_bytes = 1024 * 4096 } in
      let config = { Config.default with Config.nvmm_size = 32 * 1024 * 1024 } in
      let d, fs = Testkit.make_hinfs ~config ~hcfg engine in
      let pool = H.shard_pool fs 0 in
      let files = 4 and len = (768 * 1024) + 100 in
      let payload i = Testkit.pattern_bytes ~seed:(i + 1) len in
      let before = Device.resident_lines d in
      let inos =
        List.init files (fun i ->
            let ino = Pmfs.create_file (H.pmfs fs) ~dir:root (Fmt.str "f%d" i) in
            (* Unaligned pieces: partial lines are fetched, then written. *)
            let src = payload i and pos = ref 0 in
            while !pos < len do
              let n = Int.min (1000 + (37 * i)) (len - !pos) in
              ignore (H.write fs ~ino ~off:!pos ~src ~src_off:!pos ~len:n ~sync:false);
              pos := !pos + n
            done;
            ino)
      in
      let buffered = H.buffered_blocks fs in
      check_bool
        (Fmt.str "%d blocks buffered, most of the files" buffered)
        true (buffered * 4096 > files * len / 2);
      check_bool "dirty lines are private" true (Buffer_pool.private_lines pool > 0);
      H.sync_all fs;
      check_int "the blocks stay buffered" buffered (H.buffered_blocks fs);
      check_int "private lines after sync_all" 0 (Buffer_pool.private_lines pool);
      let grown = Device.resident_lines d - before in
      check_bool
        (Fmt.str "the medium holds the data's %d lines (%d)" (files * len / 64) grown)
        true (grown >= files * len / 64);
      List.iteri
        (fun i ino ->
          Testkit.check_bytes (Fmt.str "f%d reads back" i) (payload i)
            (fst (read_back fs ~ino ~off:0 ~len)))
        inos)

(* --- footprint: long-lived state sized by what it holds ---

   State kept for the life of a mount sets the host's peak: each word
   of it lives in the major heap. Per-page and per-slot bookkeeping is a
   byte, and a buffer block whose lines are all one fill line holds the
   device's fill table, not a table of its own. *)

module Log = Hinfs_journal.Cacheline_log

(* Bytes [f] allocates. *)
let allocated_by f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  let used = Gc.allocated_bytes () -. before in
  (r, used)

let test_page_and_slot_state_is_a_byte () =
  Testkit.run_sim (fun engine ->
      let config =
        { Config.default with Config.nvmm_size = 384 * 1024 * 1024 }
      in
      let d, used =
        allocated_by (fun () ->
            Sys.opaque_identity (Testkit.make_device ~config engine))
      in
      let pages = Config.blocks config in
      (* A page: its slot in the page table, then a byte of ownership and
         a byte of dirty-line count. *)
      check_bool
        (Fmt.str "a %d-page device allocates %.0f B, under 10 B a page + 128 KB"
           pages used)
        true
        (used < float_of_int ((10 * pages) + 131072));
      let fs = H.mkfs_and_mount d ~shards:8 ~daemons:false () in
      let geo = Pmfs.geometry (H.pmfs fs) in
      let slots = ref 0 and used = ref 0. in
      for s = 0 to 7 do
        let first_block, blocks = Layout.journal_region geo s in
        let log, n =
          allocated_by (fun () ->
              Sys.opaque_identity (Log.create d ~first_block ~blocks))
        in
        slots := !slots + Log.capacity log;
        used := !used +. n
      done;
      (* A slot: one byte of free/used state, and 2 KB for each log. *)
      check_bool
        (Fmt.str "8 logs of %d slots allocate %.0f B, under 1 B a slot + 16 KB"
           !slots !used)
        true
        (!used < float_of_int (!slots + (8 * 2048))))

(* Files written with one byte value each, in unaligned pieces that leave
   partial lines private until the writeback: once synced, every buffered
   block holds that value's fill table. *)
let test_uniform_blocks_share_fill_tables () =
  Testkit.run_sim (fun engine ->
      let hcfg = { Hconfig.default with Hconfig.buffer_bytes = 512 * 4096 } in
      let d, fs = Testkit.make_hinfs ~hcfg ~shards:2 engine in
      let files = 4 and len = 96 * 4096 in
      for i = 0 to files - 1 do
        let ino = Pmfs.create_file (H.pmfs fs) ~dir:root (Fmt.str "u%d" i) in
        let src = Bytes.make len "wxyz".[i] and pos = ref 0 in
        while !pos < len do
          let n = Int.min (1000 + (37 * i)) (len - !pos) in
          ignore
            (H.write fs ~ino ~off:!pos ~src ~src_off:!pos ~len:n ~sync:false);
          pos := !pos + n
        done
      done;
      H.sync_all fs;
      let blocks = ref 0 and owning = ref 0 in
      for s = 0 to 1 do
        let pool = H.shard_pool fs s in
        List.iter
          (fun id ->
            let b = Buffer_pool.block pool id in
            incr blocks;
            let lines = b.Buffer_pool.lines in
            if lines != Device.fill_table d (Bytes.get lines.(0) 0) then
              incr owning)
          (Buffer_pool.lrw_ids pool)
      done;
      check_bool (Fmt.str "%d blocks buffered" !blocks) true
        (!blocks * 4096 > files * len / 2);
      check_int "blocks owning a table" 0 !owning)

(* A block turning from one fill line to mixed lines and back takes its
   table from the device's spares and returns it there: warm, the copy
   on write allocates nothing. *)
let test_warm_copy_on_write_no_alloc () =
  let d = pool_device () in
  let pool = Buffer_pool.create d ~capacity:1 in
  let b =
    Option.get (Buffer_pool.alloc pool ~ino:1 ~fblock:0 ~home:0 ~now:0L)
  in
  let zero = Device.fill_table d '\000' and a = Device.fill_line d 'a' in
  Buffer_pool.store d b ~off:64 ~src:(Bytes.make 64 'a') ~src_off:0 ~len:64;
  check_bool "a mixed block owns its table" true (b.Buffer_pool.lines != zero);
  check_bool "the stored line is the fill line" true
    (b.Buffer_pool.lines.(1) == a);
  Testkit.check_no_alloc "fill_zeros into a uniform block, twice" (fun () ->
      Buffer_pool.fill_zeros d b ~first:0 ~count:64;
      Buffer_pool.fill_zeros d b ~first:5 ~count:1);
  check_bool "the block is uniform again" true (b.Buffer_pool.lines == zero)

let () =
  Alcotest.run "hinfs"
    [
      ( "clbitmap",
        [
          Alcotest.test_case "byte ranges" `Quick test_clbitmap_ranges;
          Alcotest.test_case "boundary partials" `Quick
            test_clbitmap_boundary_partials;
          Alcotest.test_case "runs" `Quick test_clbitmap_runs;
        ]
        @ Testkit.qcheck_cases [ clbitmap_words_prop ] );
      ( "buffering",
        [
          Alcotest.test_case "lazy write buffered" `Quick
            test_lazy_write_buffered_not_persistent;
          Alcotest.test_case "fsync persists" `Quick
            test_fsync_persists_buffered_data;
          Alcotest.test_case "ordered mode rollback" `Quick
            test_ordered_mode_crash_before_fsync;
          Alcotest.test_case "read merges DRAM+NVMM" `Quick
            test_read_merges_dram_and_nvmm;
          Alcotest.test_case "unaligned write boundaries" `Quick
            test_unaligned_buffered_write_fetches_boundaries;
          Alcotest.test_case "write coalescing" `Quick
            test_write_coalescing_reduces_nvmm_traffic;
          Alcotest.test_case "sparse home completed at fsync" `Quick
            test_sparse_block_home_completed_at_fsync;
          Alcotest.test_case "journal backpressure" `Quick
            test_journal_backpressure;
          Alcotest.test_case "rename drops victim buffers" `Quick
            test_rename_replace_drops_victim_buffers;
        ] );
      ( "buffer-pool",
        [
          Alcotest.test_case "lazy pool matches FIFO model" `Quick
            test_pool_matches_fifo_model;
          Alcotest.test_case "empty pool is small" `Quick
            test_empty_pool_is_small;
          Alcotest.test_case "clean pool holds no private line" `Quick
            test_clean_pool_holds_no_private_line;
        ]
        @ Testkit.qcheck_cases [ shared_line_buffer_prop ] );
      ( "footprint",
        [
          Alcotest.test_case "page and slot state is a byte" `Quick
            test_page_and_slot_state_is_a_byte;
          Alcotest.test_case "uniform blocks share fill tables" `Quick
            test_uniform_blocks_share_fill_tables;
          Alcotest.test_case "warm copy-on-write allocates nothing" `Quick
            test_warm_copy_on_write_no_alloc;
        ] );
      ( "in-place",
        [
          Alcotest.test_case "block bitmaps allocate nothing" `Quick
            test_block_bitmaps_no_alloc;
          Alcotest.test_case "benefit record allocates nothing" `Quick
            test_benefit_record_no_alloc;
          Alcotest.test_case "stats accumulators allocate nothing" `Quick
            test_stats_no_alloc;
        ] );
      ( "clfw",
        [
          Alcotest.test_case "flush granularity" `Quick
            test_clfw_flushes_only_dirty_lines;
          Alcotest.test_case "fetch granularity" `Quick
            test_clfw_fetch_granularity;
        ] );
      ( "benefit-model",
        [
          Alcotest.test_case "turns eager" `Quick
            test_benefit_model_turns_block_eager;
          Alcotest.test_case "keeps coalescing lazy" `Quick
            test_benefit_model_keeps_coalescing_lazy;
          Alcotest.test_case "eager decays" `Quick test_eager_state_decays;
          Alcotest.test_case "accuracy stat" `Quick test_model_accuracy_stat;
          Alcotest.test_case "sync write evicts buffered" `Quick
            test_sync_write_with_buffered_block_evicts;
          Alcotest.test_case "HiNFS-WB buffers everything" `Quick
            test_wb_mode_buffers_everything;
        ] );
      ( "writeback",
        [
          Alcotest.test_case "inline reclaim on exhaustion" `Quick
            test_pool_exhaustion_inline_reclaim;
          Alcotest.test_case "daemon reclaims to high watermark" `Quick
            test_daemon_reclaims_to_high_watermark;
          Alcotest.test_case "age flush" `Quick test_age_flush_cleans_old_blocks;
          Alcotest.test_case "daemons queue only live events" `Quick
            test_daemons_queue_only_live_events;
          Alcotest.test_case "unlink drops buffers" `Quick
            test_unlink_drops_dirty_buffers_without_writeback;
          Alcotest.test_case "reused home block gets no stale writeback"
            `Quick test_reused_home_block_no_stale_writeback;
          Alcotest.test_case "unmount flushes" `Quick
            test_unmount_flushes_everything;
          Alcotest.test_case "constant fills back no pages" `Quick
            test_constant_fill_footprint;
        ] );
      ( "mmap",
        [
          Alcotest.test_case "mmap flushes and pins eager" `Quick
            test_mmap_flushes_and_pins_eager;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "writers share small pool" `Quick
            test_concurrent_writers_shared_small_pool;
        ]
        @ Testkit.qcheck_cases [ hinfs_model_prop; hinfs_crash_prop ] );
    ]
