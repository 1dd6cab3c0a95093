(* VFS-layer unit tests: path handling, flag semantics, and locking
   behaviour that the FS-specific suites do not isolate. *)

module Path = Hinfs_vfs.Path
module Errno = Hinfs_vfs.Errno
module Types = Hinfs_vfs.Types
module Vfs = Hinfs_vfs.Vfs
module Proc = Hinfs_sim.Proc
module Pmfs = Hinfs_pmfs.Pmfs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- path --- *)

let test_path_split () =
  Alcotest.(check (list string)) "simple" [ "a"; "b"; "c" ]
    (Path.split "/a/b/c");
  Alcotest.(check (list string)) "root" [] (Path.split "/");
  Alcotest.(check (list string)) "double slashes collapse" [ "a"; "b" ]
    (Path.split "//a//b/");
  let rejects p =
    try
      ignore (Path.split p);
      false
    with Errno.Fs_error (EINVAL, _) -> true
  in
  check_bool "relative rejected" true (rejects "a/b");
  check_bool "empty rejected" true (rejects "");
  check_bool "dot rejected" true (rejects "/a/./b");
  check_bool "dotdot rejected" true (rejects "/a/../b")

let test_path_helpers () =
  Alcotest.(check string) "basename" "c" (Path.basename "/a/b/c");
  Alcotest.(check string) "dirname" "/a/b" (Path.dirname "/a/b/c");
  Alcotest.(check string) "dirname at root" "/" (Path.dirname "/c");
  Alcotest.(check string) "concat root" "/x" (Path.concat "/" "x");
  Alcotest.(check string) "concat nested" "/a/x" (Path.concat "/a" "x");
  Alcotest.(check string) "join" "/a/b" (Path.join [ "a"; "b" ]);
  let dir, name = Path.split_dir "/a/b/c" in
  Alcotest.(check (list string)) "split_dir dir" [ "a"; "b" ] dir;
  Alcotest.(check string) "split_dir name" "c" name

let test_long_component_rejected () =
  let long = String.make 300 'x' in
  let rejects =
    try
      ignore (Path.split ("/" ^ long));
      false
    with Errno.Fs_error (EINVAL, _) -> true
  in
  check_bool "over-long component" true rejects

(* --- flag semantics (on PMFS, the simplest backend) --- *)

let test_truncate_flag () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      let fd = h.Vfs.open_ "/t" Types.creat in
      ignore (h.Vfs.write fd (Bytes.make 5000 'x') 5000);
      h.Vfs.close fd;
      let fd = h.Vfs.open_ "/t" { Types.creat with Types.truncate = true } in
      check_int "truncated on open" 0 (h.Vfs.fstat fd).Types.size;
      h.Vfs.close fd)

let test_read_at_eof_returns_zero () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      let fd = h.Vfs.open_ "/e" { Types.creat with Types.read = true } in
      ignore (h.Vfs.write fd (Bytes.make 10 'x') 10);
      let buf = Bytes.create 10 in
      check_int "pread past EOF" 0 (h.Vfs.pread fd ~off:100 buf 10);
      h.Vfs.seek fd 10;
      check_int "read at EOF" 0 (h.Vfs.read fd buf 10);
      h.Vfs.close fd)

let test_unlink_open_file_rejected () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      let fd = h.Vfs.open_ "/busy" Types.creat in
      let rejected =
        try
          h.Vfs.unlink "/busy";
          false
        with Errno.Fs_error (EINVAL, _) -> true
      in
      check_bool "unlink while open rejected" true rejected;
      h.Vfs.close fd;
      h.Vfs.unlink "/busy";
      check_bool "unlink after close" false (h.Vfs.exists "/busy"))

let test_open_directory_for_write_rejected () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      h.Vfs.mkdir "/dir";
      let rejected =
        try
          ignore (h.Vfs.open_ "/dir" Types.wronly);
          false
        with Errno.Fs_error (EISDIR, _) -> true
      in
      check_bool "EISDIR" true rejected;
      (* stat still works on directories *)
      check_bool "dir stats" true
        ((h.Vfs.stat "/dir").Types.kind = Types.Directory))

let test_syscall_overhead_charged () =
  let stats = Hinfs_stats.Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 () in
      let h = Pmfs.handle fs in
      let t0 = Proc.now () in
      check_bool "missing" false (h.Vfs.exists "/nothing");
      (* exists = one stat syscall: at least the syscall cost elapsed. *)
      check_bool "syscall cost" true
        (Int64.compare (Int64.sub (Proc.now ()) t0) 1000L >= 0))

(* Every cost a layer charges goes through [Device.charge_ns] /
   [Device.charge_memcpy] / the device's own timed paths, which book the
   same nanoseconds to [Stats] that they spend on the clock. With one
   process and no daemons nothing runs concurrently, so the [Stats] total
   must equal the elapsed virtual time exactly, on every backend. *)
let backends =
  let module Extfs = Hinfs_extfs.Extfs in
  let module Nvcache = Hinfs_nvcache.Nvcache in
  let own h = (h, h.Vfs.unmount) in
  let ext mode d =
    own (Extfs.handle (Extfs.mkfs_and_mount d ~mode ~daemons:false ()))
  in
  (* The stack's unmount, not the handle's: it drains the tier, so the
     destage path is charged too. *)
  let nvcache design d =
    let st =
      Nvcache.mkfs_and_mount d ~design ~mode:Extfs.Ext4 ~sync_mount:true
        ~daemons:false ()
    in
    (Nvcache.handle st, fun () -> Nvcache.unmount st)
  in
  [
    ( "pmfs",
      fun d -> own (Pmfs.handle (Pmfs.mkfs_and_mount d ~journal_blocks:32 ()))
    );
    ( "cowfs",
      fun d ->
        own (Hinfs_pmfs.Cowfs.handle (Hinfs_pmfs.Cowfs.mkfs_and_mount d ())) );
    ( "hinfs",
      fun d ->
        own
          (Hinfs.Fs.handle
             (Hinfs.Fs.mkfs_and_mount d ~hcfg:Testkit.small_hcfg
                ~daemons:false ())) );
    ("ext2", ext Extfs.Ext2);
    ("ext4", ext Extfs.Ext4);
    ("ext4-dax", ext Extfs.Ext4_dax);
    ("ext4+nvlog", nvcache Nvcache.Logging);
    ("ext4+nvpage", nvcache Nvcache.Paging);
  ]

let test_charged_time_is_elapsed_time () =
  List.iter
    (fun (name, mount) ->
      let stats = Hinfs_stats.Stats.create () in
      Testkit.run_sim (fun engine ->
          let t0 = Proc.now () in
          let h, unmount = mount (Testkit.make_device ~stats engine) in
          h.Vfs.mkdir "/d";
          let fd = h.Vfs.open_ "/d/a" { Types.creat with Types.read = true } in
          ignore (h.Vfs.write fd (Testkit.pattern_bytes ~seed:1 5000) 5000);
          ignore (h.Vfs.pwrite fd ~off:3000 (Bytes.make 100 'p') 100);
          (* Past a block-sized hole, so the read below zero-fills one. *)
          ignore (h.Vfs.pwrite fd ~off:12288 (Bytes.make 100 'q') 100);
          h.Vfs.fsync fd;
          ignore (h.Vfs.pread fd ~off:0 (Bytes.create 12388) 12388);
          h.Vfs.close fd;
          let fd = h.Vfs.open_ "/d/b" Types.creat in
          ignore (h.Vfs.write fd (Bytes.make 200 'b') 200);
          h.Vfs.close fd;
          h.Vfs.rename "/d/b" "/d/c";
          check_int (name ^ ": readdir") 2 (List.length (h.Vfs.readdir "/d"));
          h.Vfs.unlink "/d/a";
          unmount ();
          let elapsed = Int64.sub (Proc.now ()) t0 in
          check_bool (name ^ ": time passed") true (elapsed > 0L);
          Alcotest.(check int64)
            (name ^ ": Stats.total_time = elapsed virtual time")
            elapsed
            (Hinfs_stats.Stats.total_time stats)))
    backends

let test_concurrent_readers_share_inode_lock () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      let fd = h.Vfs.open_ "/shared" { Types.creat with Types.read = true } in
      ignore (h.Vfs.write fd (Bytes.make 65536 's') 65536);
      h.Vfs.close fd;
      (* Two concurrent whole-file readers should overlap: total elapsed
         well under 2x a single read. *)
      let single =
        let t0 = Proc.now () in
        let fd = h.Vfs.open_ "/shared" Types.rdonly in
        let buf = Bytes.create 65536 in
        ignore (h.Vfs.pread fd ~off:0 buf 65536);
        h.Vfs.close fd;
        Int64.sub (Proc.now ()) t0
      in
      let t0 = Proc.now () in
      let live = ref 2 in
      for _ = 1 to 2 do
        Proc.spawn (fun () ->
            let fd = h.Vfs.open_ "/shared" Types.rdonly in
            let buf = Bytes.create 65536 in
            ignore (h.Vfs.pread fd ~off:0 buf 65536);
            h.Vfs.close fd;
            decr live)
      done;
      while !live > 0 do
        Proc.delay 1000L
      done;
      let both = Int64.sub (Proc.now ()) t0 in
      check_bool "readers overlap" true
        (Int64.to_float both < 1.8 *. Int64.to_float single))

let () =
  Alcotest.run "vfs"
    [
      ( "path",
        [
          Alcotest.test_case "split" `Quick test_path_split;
          Alcotest.test_case "helpers" `Quick test_path_helpers;
          Alcotest.test_case "long component" `Quick
            test_long_component_rejected;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "O_TRUNC" `Quick test_truncate_flag;
          Alcotest.test_case "EOF reads" `Quick test_read_at_eof_returns_zero;
          Alcotest.test_case "unlink open file" `Quick
            test_unlink_open_file_rejected;
          Alcotest.test_case "open dir for write" `Quick
            test_open_directory_for_write_rejected;
          Alcotest.test_case "syscall overhead" `Quick
            test_syscall_overhead_charged;
          Alcotest.test_case "readers share lock" `Quick
            test_concurrent_readers_share_inode_lock;
          Alcotest.test_case "charged time is elapsed time" `Quick
            test_charged_time_is_elapsed_time;
        ] );
    ]
