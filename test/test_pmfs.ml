(* PMFS integration tests: data path, namespace, persistence across
   remount, crash recovery, and the VFS layer on top. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Pmfs = Hinfs_pmfs.Pmfs
module Cowfs = Hinfs_pmfs.Cowfs
module Layout = Hinfs_pmfs.Layout
module Media = Hinfs_pmfs.Media
module Fsck = Hinfs_fsck.Fsck
module Errno = Hinfs_vfs.Errno
module Types = Hinfs_vfs.Types
module Vfs = Hinfs_vfs.Vfs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let root = Layout.root_ino

let read_all fs ~ino ~len =
  let buf = Bytes.create len in
  let n = Pmfs.read fs ~ino ~off:0 ~len ~into:buf ~into_off:0 in
  (Bytes.sub buf 0 n, n)

(* --- basic data path --- *)

let test_create_write_read () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "hello" in
      let payload = Testkit.pattern_bytes ~seed:1 10_000 in
      let n =
        Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:10_000
          ~sync:false
      in
      check_int "bytes written" 10_000 n;
      let data, n = read_all fs ~ino ~len:20_000 in
      check_int "bytes read (clamped to size)" 10_000 n;
      Testkit.check_bytes "round trip" payload data)

let test_unaligned_overwrite () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "f" in
      let base = Bytes.make 9000 'a' in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:base ~src_off:0 ~len:9000 ~sync:false);
      (* Overwrite an unaligned range crossing a block boundary. *)
      let patch = Bytes.make 1000 'b' in
      ignore
        (Pmfs.write fs ~ino ~off:3800 ~src:patch ~src_off:0 ~len:1000
           ~sync:false);
      let expected = Bytes.make 9000 'a' in
      Bytes.fill expected 3800 1000 'b';
      let data, _ = read_all fs ~ino ~len:9000 in
      Testkit.check_bytes "patched" expected data)

let test_sparse_file_holes_read_zero () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "sparse" in
      let tail = Bytes.make 100 'z' in
      (* Write far into the file: everything before is a hole. *)
      ignore
        (Pmfs.write fs ~ino ~off:1_000_000 ~src:tail ~src_off:0 ~len:100
           ~sync:false);
      check_int "size" 1_000_100 (Pmfs.inode_size fs ino);
      let buf = Bytes.make 200 'x' in
      let n = Pmfs.read fs ~ino ~off:500_000 ~len:200 ~into:buf ~into_off:0 in
      check_int "hole read length" 200 n;
      check_bool "hole reads zeros" true
        (Bytes.to_string buf = String.make 200 '\000');
      (* Tail data intact. *)
      let buf2 = Bytes.create 100 in
      let _ = Pmfs.read fs ~ino ~off:1_000_000 ~len:100 ~into:buf2 ~into_off:0 in
      Testkit.check_bytes "tail" tail buf2)

let test_fresh_partial_block_zero_filled () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      (* Pollute a block, free it, then reallocate for a new file: stale
         bytes must not leak. *)
      let a = Pmfs.create_file fs ~dir:root "a" in
      let junk = Bytes.make 4096 'J' in
      ignore (Pmfs.write fs ~ino:a ~off:0 ~src:junk ~src_off:0 ~len:4096 ~sync:false);
      Pmfs.unlink fs ~dir:root "a";
      let b = Pmfs.create_file fs ~dir:root "b" in
      let tiny = Bytes.make 10 'T' in
      ignore (Pmfs.write fs ~ino:b ~off:100 ~src:tiny ~src_off:0 ~len:10 ~sync:false);
      (* size is 110; bytes 0..99 must read as zeros, not 'J'. *)
      let buf = Bytes.create 110 in
      let _ = Pmfs.read fs ~ino:b ~off:0 ~len:110 ~into:buf ~into_off:0 in
      check_bool "prefix zeroed" true
        (Bytes.sub_string buf 0 100 = String.make 100 '\000');
      Alcotest.(check string) "data" (Bytes.to_string tiny)
        (Bytes.sub_string buf 100 10))

let test_large_file_grows_tree () =
  Testkit.run_sim (fun engine ->
      let config =
        { Testkit.small_config with Hinfs_nvmm.Config.nvmm_size = 32 * 1024 * 1024 }
      in
      let _d, fs = Testkit.make_pmfs ~config engine in
      let ino = Pmfs.create_file fs ~dir:root "big" in
      (* 3 MB: needs a height-2 tree (512 blocks per level-1 node). *)
      let chunk = Bytes.make 65536 '\000' in
      for i = 0 to 47 do
        Bytes.fill chunk 0 65536 (Char.chr (Char.code 'A' + (i mod 26)));
        ignore
          (Pmfs.write fs ~ino ~off:(i * 65536) ~src:chunk ~src_off:0 ~len:65536
             ~sync:false)
      done;
      check_int "size" (48 * 65536) (Pmfs.inode_size fs ino);
      (* Spot check several offsets. *)
      List.iter
        (fun i ->
          let buf = Bytes.create 16 in
          let _ =
            Pmfs.read fs ~ino ~off:(i * 65536) ~len:16 ~into:buf ~into_off:0
          in
          Alcotest.(check char)
            "content at chunk" (Char.chr (Char.code 'A' + (i mod 26)))
            (Bytes.get buf 0))
        [ 0; 1; 17; 31; 47 ])

let test_truncate () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "t" in
      let payload = Testkit.pattern_bytes ~seed:2 20_000 in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:20_000 ~sync:false);
      let blocks_before = (Pmfs.stat_of fs ino).Types.blocks in
      Pmfs.truncate fs ~ino ~size:5_000;
      check_int "shrunk size" 5_000 (Pmfs.inode_size fs ino);
      let blocks_after = (Pmfs.stat_of fs ino).Types.blocks in
      check_bool "blocks freed" true (blocks_after < blocks_before);
      let data, n = read_all fs ~ino ~len:20_000 in
      check_int "reads clamp" 5_000 n;
      Testkit.check_bytes "kept prefix" (Bytes.sub payload 0 5_000) data;
      (* Grow back: no stale data may reappear. *)
      Pmfs.truncate fs ~ino ~size:8_192;
      let buf = Bytes.create 3_192 in
      let _ = Pmfs.read fs ~ino ~off:5_000 ~len:3_192 ~into:buf ~into_off:0 in
      ignore buf)

let test_unlink_frees_space () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      (* Prime the root directory's dirent block so it does not count as
         "leaked" space below. *)
      let warmup = Pmfs.create_file fs ~dir:root "warmup" in
      ignore warmup;
      Pmfs.unlink fs ~dir:root "warmup";
      let free0 = Pmfs.free_data_blocks fs in
      let ino = Pmfs.create_file fs ~dir:root "f" in
      let payload = Bytes.make 100_000 'x' in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:100_000 ~sync:false);
      check_bool "space consumed" true (Pmfs.free_data_blocks fs < free0);
      Pmfs.unlink fs ~dir:root "f";
      check_int "space reclaimed" free0 (Pmfs.free_data_blocks fs);
      check_bool "name gone" true (Pmfs.lookup fs ~dir:root "f" = None))

(* Create/unlink churn reuses the lowest free blocks, as PMFS does, so the
   medium backs the same pages round after round instead of sweeping fresh
   ones across the device. *)
let test_churn_footprint_bounded () =
  Testkit.run_sim (fun engine ->
      let d, fs = Testkit.make_pmfs engine in
      let bs = (Device.config d).Hinfs_nvmm.Config.block_size in
      let payload = Testkit.pattern_bytes ~seed:3 (4 * bs) in
      let name i = Fmt.str "f%d" i in
      let round () =
        for i = 0 to 7 do
          let ino = Pmfs.create_file fs ~dir:root (name i) in
          ignore
            (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:(4 * bs)
               ~sync:false);
          Pmfs.fsync fs ~ino
        done;
        for i = 0 to 7 do
          Pmfs.unlink fs ~dir:root (name i)
        done
      in
      round ();
      let after_first = Device.resident_pages d in
      for _ = 2 to 8 do
        round ()
      done;
      (* The slack is the journal ring, whose pages fill in one by one as
         its head advances; next-fit allocation added ~40 pages a round. *)
      let slack = (Pmfs.geometry fs).Layout.journal_blocks in
      let after_last = Device.resident_pages d in
      if after_last > after_first + slack then
        Alcotest.failf "resident pages grew %d -> %d over 8 rounds of churn"
          after_first after_last;
      let first_block name =
        let ino = Pmfs.create_file fs ~dir:root name in
        ignore
          (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:bs
             ~sync:false);
        Option.get (Pmfs.Data.lookup_block fs ~ino ~fblock:0)
      in
      let freed = first_block "g" in
      Pmfs.unlink fs ~dir:root "g";
      check_int "a new file reuses the freed block" freed (first_block "h"))

(* --- namespace --- *)

let test_directories () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let sub = Pmfs.mkdir fs ~dir:root "sub" in
      let _a = Pmfs.create_file fs ~dir:sub "a" in
      let _b = Pmfs.create_file fs ~dir:sub "b" in
      let names = List.map fst (Pmfs.readdir fs ~dir:sub) in
      Alcotest.(check (list string)) "listing" [ "a"; "b" ]
        (List.sort compare names);
      Pmfs.unlink fs ~dir:sub "a";
      Pmfs.unlink fs ~dir:sub "b";
      Pmfs.rmdir fs ~dir:root "sub";
      check_bool "dir gone" true (Pmfs.lookup fs ~dir:root "sub" = None))

(* The namespace surface of the two substrates sharing the PMFS dirent
   format, so one test can drive both. *)
type namespace = {
  create : string -> unit;
  unlink : string -> unit;
  names : unit -> string list;
  lookup : string -> int option;
}

let pmfs_namespace fs =
  {
    create = (fun name -> ignore (Pmfs.create_file fs ~dir:root name));
    unlink = (fun name -> Pmfs.unlink fs ~dir:root name);
    names = (fun () -> List.map fst (Pmfs.readdir fs ~dir:root));
    lookup = (fun name -> Pmfs.lookup fs ~dir:root name);
  }

let cow_namespace fs =
  let dir = Cowfs.root_ino in
  {
    create = (fun name -> ignore (Cowfs.create_file fs ~dir name));
    unlink = (fun name -> Cowfs.unlink fs ~dir name);
    names = (fun () -> List.map fst (Cowfs.readdir fs ~dir));
    lookup = (fun name -> Cowfs.lookup fs ~dir name);
  }

let test_many_dirents_span_blocks () =
  Testkit.run_sim (fun engine ->
      let _d, pmfs = Testkit.make_pmfs engine in
      let cow = Cowfs.mkfs_and_mount (Testkit.make_device engine) () in
      let listing ns =
        (* 64 dirents per block; create 200 entries to span multiple dirent
           blocks. *)
        for i = 0 to 199 do
          ns.create (Printf.sprintf "file%03d" i)
        done;
        check_int "entries" 200 (List.length (ns.names ()));
        (* Delete every other, then re-create: slots are reused. *)
        for i = 0 to 199 do
          if i mod 2 = 0 then ns.unlink (Printf.sprintf "file%03d" i)
        done;
        check_int "after deletes" 100 (List.length (ns.names ()));
        for i = 0 to 99 do
          ns.create (Printf.sprintf "new%03d" i)
        done;
        let names = ns.names () in
        check_int "after re-create" 200 (List.length names);
        check_bool "lookup works" true (ns.lookup "file001" <> None);
        (* Name-length boundary: 55 bytes fit a dirent, 56 do not. *)
        let longest = String.make Media.Dirent.max_name_len 'n' in
        ns.create longest;
        check_bool "55-byte name accepted" true (ns.lookup longest <> None);
        ns.unlink longest;
        let too_long =
          try
            ns.create (longest ^ "n");
            false
          with Errno.Fs_error (EINVAL, _) -> true
        in
        check_bool "56-byte name rejected" true too_long;
        List.sort compare names
      in
      Alcotest.(check (list string))
        "both substrates list the same names" (listing (pmfs_namespace pmfs))
        (listing (cow_namespace cow)))

(* A dirent whose name length is out of range is reported by fsck and
   fails lookup and readdir with EIO, never an out-of-bounds read. *)
let test_malformed_dirent () =
  Testkit.run_sim (fun engine ->
      let device, fs = Testkit.make_pmfs engine in
      ignore (Pmfs.create_file fs ~dir:root "victim");
      let block = Option.get (Pmfs.Data.lookup_block fs ~ino:root ~fblock:0) in
      let bad_len = Bytes.make 2 '\255' in
      let base = Pmfs.Data.block_addr fs block in
      Device.poke device ~addr:(base + 4) ~src:bad_len ~off:0 ~len:2;
      (* A dirty line in the same page: the walk reads this page through
         the CPU-cache overlay. *)
      let spare = base + (62 * Media.Dirent.size) in
      Device.set_bytes device ~cat:Stats.Other ~addr:spare
        (Bytes.make Media.Dirent.size '\000');
      check_bool "the page has a dirty line" true
        (Device.is_dirty_line device (spare / 64));
      check_bool "fsck reports the bad name length" true
        (List.mem
           (Fmt.str "dir %d: dirent block %d slot 0 has bad name length 65535"
              root block)
           (Fsck.check fs));
      let eio f =
        try
          ignore (f ());
          false
        with Errno.Fs_error (EIO, _) -> true
      in
      check_bool "lookup fails with EIO" true
        (eio (fun () -> Pmfs.lookup fs ~dir:root "victim"));
      check_bool "readdir fails with EIO" true
        (eio (fun () -> Pmfs.readdir fs ~dir:root)))

(* Lookups read dirents in the coherent view: an entry stored in the CPU
   cache and never flushed is found, and a crash loses it. *)
let test_unflushed_dirent () =
  Testkit.run_sim (fun engine ->
      let device, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "kept" in
      let block = Option.get (Pmfs.Data.lookup_block fs ~ino:root ~fblock:0) in
      let addr = Pmfs.Data.block_addr fs block + (63 * Media.Dirent.size) in
      Device.set_bytes device ~cat:Stats.Other ~addr
        (Media.Dirent.encode ~name:"cached" ~ino);
      check_bool "the dirent is only in the CPU cache" true
        (Device.is_dirty_line device (addr / 64));
      Alcotest.(check (option int)) "found before the crash" (Some ino)
        (Pmfs.lookup fs ~dir:root "cached");
      Device.crash device;
      let fs = Pmfs.mount device () in
      Alcotest.(check (option int)) "gone after the crash" None
        (Pmfs.lookup fs ~dir:root "cached");
      Alcotest.(check (option int)) "the committed entry stays" (Some ino)
        (Pmfs.lookup fs ~dir:root "kept"))

let test_rename () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "old" in
      let payload = Testkit.pattern_bytes ~seed:3 500 in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:500 ~sync:false);
      let sub = Pmfs.mkdir fs ~dir:root "d" in
      Pmfs.rename fs ~src_dir:root ~src:"old" ~dst_dir:sub ~dst:"new";
      check_bool "old gone" true (Pmfs.lookup fs ~dir:root "old" = None);
      Alcotest.(check (option int)) "new present" (Some ino)
        (Pmfs.lookup fs ~dir:sub "new");
      (* Rename over an existing file frees the target. *)
      let victim = Pmfs.create_file fs ~dir:sub "victim" in
      ignore (Pmfs.write fs ~ino:victim ~off:0 ~src:payload ~src_off:0 ~len:500 ~sync:false);
      Pmfs.rename fs ~src_dir:sub ~src:"new" ~dst_dir:sub ~dst:"victim";
      Alcotest.(check (option int)) "replaced" (Some ino)
        (Pmfs.lookup fs ~dir:sub "victim"))

(* --- persistence across remount --- *)

let test_remount_preserves_data () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 () in
      let sub = Pmfs.mkdir fs ~dir:root "dir" in
      let ino = Pmfs.create_file fs ~dir:sub "file" in
      let payload = Testkit.pattern_bytes ~seed:10 50_000 in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:50_000 ~sync:false);
      let free_before = Pmfs.free_data_blocks fs in
      Pmfs.unmount fs;
      (* Remount the same device. *)
      let fs2 = Pmfs.mount d () in
      check_int "no recovery on clean unmount" 0 (Pmfs.recovered_txns fs2);
      let sub2 = Option.get (Pmfs.lookup fs2 ~dir:root "dir") in
      check_int "dir ino stable" sub sub2;
      let ino2 = Option.get (Pmfs.lookup fs2 ~dir:sub2 "file") in
      let buf = Bytes.create 50_000 in
      let n = Pmfs.read fs2 ~ino:ino2 ~off:0 ~len:50_000 ~into:buf ~into_off:0 in
      check_int "size preserved" 50_000 n;
      Testkit.check_bytes "data preserved" payload buf;
      check_int "allocator rebuilt identically" free_before
        (Pmfs.free_data_blocks fs2))

let test_crash_recovery_consistent () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 () in
      let ino = Pmfs.create_file fs ~dir:root "stable" in
      let payload = Testkit.pattern_bytes ~seed:11 8192 in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:8192 ~sync:false);
      (* Crash without unmounting: committed transactions must survive, the
         file system must mount and pass basic consistency checks. *)
      Device.crash d;
      let fs2 = Pmfs.mount d () in
      let ino2 = Option.get (Pmfs.lookup fs2 ~dir:root "stable") in
      let buf = Bytes.create 8192 in
      let n = Pmfs.read fs2 ~ino:ino2 ~off:0 ~len:8192 ~into:buf ~into_off:0 in
      check_int "committed write survived crash" 8192 n;
      Testkit.check_bytes "data intact" payload buf)

(* Property: crash at a random point during a random operation sequence
   always yields a mountable, readable file system where every file's
   content is one of the states the crashed operation allows. We check a
   weaker but meaningful invariant: mount succeeds, every directory entry
   resolves to a live inode, and reading every file succeeds. *)
let crash_anywhere_prop =
  QCheck.Test.make ~name:"pmfs mounts consistently after crash anywhere"
    ~count:25
    QCheck.(pair small_nat (int_bound 5_000_000))
    (fun (seed, crash_at) ->
      Testkit.run_sim (fun engine ->
          let d = Testkit.make_device engine in
          let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 () in
          let rng = Rng.create ~seed:(Int64.of_int (seed * 31 + 7)) in
          (* Run random ops in a child process; "crash" by snapshotting the
             persistent medium at a random virtual instant (a real crash
             stops execution, so the child is quiesced from then on and any
             half-finished operation is excused). *)
          let crashed = ref false in
          Proc.spawn (fun () ->
              try
                for i = 0 to 200 do
                  if !crashed then raise Exit;
                  let name = Printf.sprintf "f%d" (Rng.int rng 20) in
                  match Rng.int rng 4 with
                  (* The backend acts only on a valid namespace op
                     (Backend.S): the VFS would refuse the others. *)
                  | 0 -> (
                    if Pmfs.lookup fs ~dir:root name = None then
                      try ignore (Pmfs.create_file fs ~dir:root name)
                      with Errno.Fs_error _ -> ())
                  | 1 -> (
                    match Pmfs.lookup fs ~dir:root name with
                    | Some ino ->
                      let len = 1 + Rng.int rng 10_000 in
                      let payload = Testkit.pattern_bytes ~seed:i len in
                      ignore
                        (Pmfs.write fs ~ino ~off:(Rng.int rng 20_000)
                           ~src:payload ~src_off:0 ~len ~sync:false)
                    | None -> ())
                  | 2 -> (
                    if Pmfs.lookup fs ~dir:root name <> None then
                      try Pmfs.unlink fs ~dir:root name
                      with Errno.Fs_error _ -> ())
                  | _ -> (
                    match Pmfs.lookup fs ~dir:root name with
                    | Some ino -> Pmfs.truncate fs ~ino ~size:(Rng.int rng 5_000)
                    | None -> ())
                done
              with
              | Engine.Stopped | Exit -> ()
              | _ when !crashed -> ());
          Proc.delay (Int64.of_int crash_at);
          let image = Device.snapshot d in
          crashed := true;
          let d2 =
            Device.of_snapshot
              (Device.engine d)
              (Hinfs_stats.Stats.create ())
              (Device.config d) image
          in
          let fs2 = Pmfs.mount d2 () in
          let ok = ref true in
          List.iter
            (fun (_name, ino) ->
              match Pmfs.stat_of fs2 ino with
              | stat ->
                let buf = Bytes.create (min stat.Types.size 50_000) in
                (try
                   ignore
                     (Pmfs.read fs2 ~ino ~off:0 ~len:(Bytes.length buf)
                        ~into:buf ~into_off:0)
                 with _ -> ok := false)
              | exception _ -> ok := false)
            (Pmfs.readdir fs2 ~dir:root);
          !ok))

(* --- VFS layer --- *)

let test_vfs_handle_basics () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      h.Vfs.mkdir "/data";
      let fd = h.Vfs.open_ "/data/log" { Types.creat with Types.read = true } in
      let payload = Testkit.pattern_bytes ~seed:20 5000 in
      check_int "write" 5000 (h.Vfs.write fd payload 5000);
      h.Vfs.seek fd 0;
      let buf = Bytes.create 5000 in
      check_int "read" 5000 (h.Vfs.read fd buf 5000);
      Testkit.check_bytes "vfs round trip" payload buf;
      h.Vfs.fsync fd;
      let st = h.Vfs.fstat fd in
      check_int "size" 5000 st.Types.size;
      h.Vfs.close fd;
      check_bool "exists" true (h.Vfs.exists "/data/log");
      h.Vfs.unlink "/data/log";
      check_bool "gone" false (h.Vfs.exists "/data/log"))

let test_vfs_append_mode () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      let fd =
        h.Vfs.open_ "/log" { Types.creat with Types.append = true }
      in
      let a = Bytes.of_string "hello " and b = Bytes.of_string "world" in
      ignore (h.Vfs.write fd a 6);
      ignore (h.Vfs.write fd b 5);
      h.Vfs.close fd;
      let fd = h.Vfs.open_ "/log" Types.rdonly in
      let buf = Bytes.create 11 in
      ignore (h.Vfs.read fd buf 11);
      Alcotest.(check string) "appended" "hello world" (Bytes.to_string buf))

let test_vfs_errors () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      let enoent =
        try
          ignore (h.Vfs.open_ "/missing" Types.rdonly);
          false
        with Errno.Fs_error (ENOENT, _) -> true
      in
      check_bool "open missing" true enoent;
      let ebadf =
        try
          ignore (h.Vfs.read 999 (Bytes.create 1) 1);
          false
        with Errno.Fs_error (EBADF, _) -> true
      in
      check_bool "bad fd" true ebadf;
      let fd = h.Vfs.open_ "/wr" Types.creat in
      let not_readable =
        try
          ignore (h.Vfs.read fd (Bytes.create 1) 1);
          false
        with Errno.Fs_error (EBADF, _) -> true
      in
      check_bool "write-only fd not readable" true not_readable;
      let excl =
        try
          ignore (h.Vfs.open_ "/wr" { Types.creat with Types.excl = true });
          false
        with Errno.Fs_error (EEXIST, _) -> true
      in
      check_bool "O_EXCL" true excl)

let test_vfs_fsync_byte_accounting () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 () in
      let h = Pmfs.handle fs in
      let fd = h.Vfs.open_ "/f" { Types.creat with Types.read = true } in
      let buf = Bytes.make 1000 'x' in
      ignore (h.Vfs.write fd buf 1000);
      ignore (h.Vfs.write fd buf 1000);
      h.Vfs.fsync fd;
      (* A third write, not covered by any fsync. *)
      ignore (h.Vfs.write fd buf 1000);
      h.Vfs.close fd;
      (* O_SYNC writes count directly. *)
      let fd2 = h.Vfs.open_ "/g" { Types.creat with Types.o_sync = true } in
      ignore (h.Vfs.write fd2 buf 1000);
      h.Vfs.close fd2);
  Alcotest.(check int64) "user bytes" 4000L (Stats.user_bytes_written stats);
  Alcotest.(check int64) "fsync bytes" 3000L (Stats.fsync_bytes stats)

let test_concurrent_writers_different_files () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      let done_count = ref 0 in
      for i = 0 to 7 do
        Proc.spawn (fun () ->
            let path = Printf.sprintf "/file%d" i in
            let fd = h.Vfs.open_ path { Types.creat with Types.read = true } in
            let payload = Testkit.pattern_bytes ~seed:(100 + i) 8192 in
            ignore (h.Vfs.write fd payload 8192);
            h.Vfs.seek fd 0;
            let buf = Bytes.create 8192 in
            ignore (h.Vfs.read fd buf 8192);
            Testkit.check_bytes "concurrent round trip" payload buf;
            h.Vfs.close fd;
            incr done_count)
      done;
      (* run_sim returns when all processes finish *)
      ());
  ()

(* Random operations compared against a model file system (a Map from path
   to contents), via the VFS handle. *)
let vfs_model_prop =
  QCheck.Test.make ~name:"pmfs matches model under random ops" ~count:40
    QCheck.(small_nat)
    (fun seed ->
      Testkit.run_sim (fun engine ->
          let _d, fs = Testkit.make_pmfs engine in
          let h = Pmfs.handle fs in
          let rng = Rng.create ~seed:(Int64.of_int ((seed * 131) + 17)) in
          let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
          let paths = Array.init 8 (fun i -> Printf.sprintf "/m%d" i) in
          let ok = ref true in
          for step = 0 to 300 do
            let path = Rng.pick rng paths in
            match Rng.int rng 5 with
            | 0 ->
              (* write whole file *)
              let len = Rng.int rng 12_000 in
              let payload = Testkit.pattern_bytes ~seed:step len in
              let fd =
                h.Hinfs_vfs.Vfs.open_ path
                  { Types.creat with Types.truncate = true }
              in
              ignore (h.Hinfs_vfs.Vfs.write fd payload len);
              h.Hinfs_vfs.Vfs.close fd;
              Hashtbl.replace model path (Bytes.copy payload)
            | 1 -> (
              (* patch a range *)
              match Hashtbl.find_opt model path with
              | None -> ()
              | Some content ->
                let size = Bytes.length content in
                let off = Rng.int rng (size + 1000) in
                let len = 1 + Rng.int rng 3000 in
                let payload = Testkit.pattern_bytes ~seed:(step + 7) len in
                let fd = h.Hinfs_vfs.Vfs.open_ path Types.rdwr in
                ignore (h.Hinfs_vfs.Vfs.pwrite fd ~off payload len);
                h.Hinfs_vfs.Vfs.close fd;
                let new_size = max size (off + len) in
                let updated = Bytes.make new_size '\000' in
                Bytes.blit content 0 updated 0 size;
                Bytes.blit payload 0 updated off len;
                Hashtbl.replace model path updated)
            | 2 -> (
              (* delete *)
              match Hashtbl.find_opt model path with
              | None -> ()
              | Some _ ->
                h.Hinfs_vfs.Vfs.unlink path;
                Hashtbl.remove model path)
            | 3 -> (
              (* truncate *)
              match Hashtbl.find_opt model path with
              | None -> ()
              | Some content ->
                let size = Rng.int rng (Bytes.length content + 2000) in
                h.Hinfs_vfs.Vfs.truncate path size;
                let updated = Bytes.make size '\000' in
                Bytes.blit content 0 updated 0 (min size (Bytes.length content));
                Hashtbl.replace model path updated)
            | _ -> (
              (* verify read *)
              match Hashtbl.find_opt model path with
              | None ->
                if h.Hinfs_vfs.Vfs.exists path then begin
                  ok := false
                end
              | Some content ->
                let fd = h.Hinfs_vfs.Vfs.open_ path Types.rdonly in
                let buf = Bytes.create (Bytes.length content + 100) in
                let n =
                  h.Hinfs_vfs.Vfs.pread fd ~off:0 buf (Bytes.length buf)
                in
                h.Hinfs_vfs.Vfs.close fd;
                if
                  n <> Bytes.length content
                  || not (Bytes.equal (Bytes.sub buf 0 n) content)
                then ok := false)
          done;
          !ok))

let () =
  Alcotest.run "pmfs"
    [
      ( "data-path",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read;
          Alcotest.test_case "unaligned overwrite" `Quick
            test_unaligned_overwrite;
          Alcotest.test_case "sparse holes" `Quick
            test_sparse_file_holes_read_zero;
          Alcotest.test_case "fresh partial block zeroed" `Quick
            test_fresh_partial_block_zero_filled;
          Alcotest.test_case "large file grows tree" `Quick
            test_large_file_grows_tree;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "unlink frees space" `Quick
            test_unlink_frees_space;
          Alcotest.test_case "churn footprint bounded" `Quick
            test_churn_footprint_bounded;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "directories" `Quick test_directories;
          Alcotest.test_case "dirents span blocks" `Quick
            test_many_dirents_span_blocks;
          Alcotest.test_case "malformed dirent" `Quick test_malformed_dirent;
          Alcotest.test_case "unflushed dirent" `Quick test_unflushed_dirent;
          Alcotest.test_case "rename" `Quick test_rename;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "remount preserves data" `Quick
            test_remount_preserves_data;
          Alcotest.test_case "crash recovery" `Quick
            test_crash_recovery_consistent;
        ]
        @ Testkit.qcheck_cases [ crash_anywhere_prop ] );
      ( "vfs",
        [
          Alcotest.test_case "handle basics" `Quick test_vfs_handle_basics;
          Alcotest.test_case "append mode" `Quick test_vfs_append_mode;
          Alcotest.test_case "errors" `Quick test_vfs_errors;
          Alcotest.test_case "fsync byte accounting" `Quick
            test_vfs_fsync_byte_accounting;
          Alcotest.test_case "concurrent writers" `Quick
            test_concurrent_writers_different_files;
        ]
        @ Testkit.qcheck_cases [ vfs_model_prop ] );
    ]
