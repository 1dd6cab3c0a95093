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

(* --- namespace and range outcomes, across every kind ---

   One row per namespace outcome the VFS decides, plus its refusal of a
   negative file offset. Each row runs on a fresh
   mount of every [Fixtures] kind (and a 4-shard HiNFS) holding the same
   starting tree; it checks the errno or success, the tree that survives,
   and, on the PMFS-format and cowfs kinds, that the unmounted image is
   fsck-clean. *)

module Fixtures = Hinfs_harness.Fixtures
module Fsck = Hinfs_fsck.Fsck

let all_kinds =
  Fixtures.
    [
      Hinfs_fs; Hinfs_nclfw; Hinfs_wb; Pmfs_fs; Cow_fs; Ext4_dax; Ext2_nvmmbd;
      Ext4_nvmmbd; Ext4_sync; Ext2_nvlog; Ext4_nvlog; Ext4_nvpage;
    ]

(* Every file holds its own original path, so the surviving tree shows
   which file a name now refers to. *)
let initial_files = [ "/a"; "/b"; "/d/f" ]
let initial_dirs = [ "/d"; "/d/s"; "/e"; "/g" ]

let populate (h : Vfs.handle) =
  List.iter h.Vfs.mkdir initial_dirs;
  List.iter
    (fun path ->
      let fd = h.Vfs.open_ path Types.creat in
      ignore (h.Vfs.write fd (Bytes.of_string path) (String.length path));
      h.Vfs.close fd)
    initial_files

(* Sorted [path/] for directories and [path=contents] for files. *)
let tree (h : Vfs.handle) =
  let rec walk dir =
    List.concat_map
      (fun (name, _) ->
        let path = Path.concat dir name in
        match (h.Vfs.stat path).Types.kind with
        | Types.Directory -> (path ^ "/") :: walk path
        | Types.Regular ->
          let fd = h.Vfs.open_ path Types.rdonly in
          let buf = Bytes.create 64 in
          let n = h.Vfs.pread fd ~off:0 buf 64 in
          h.Vfs.close fd;
          [ path ^ "=" ^ Bytes.sub_string buf 0 n ])
      (h.Vfs.readdir dir)
  in
  List.sort compare (walk "/")

let initial_tree =
  List.sort compare
    (List.map (fun d -> d ^ "/") initial_dirs
    @ List.map (fun f -> f ^ "=" ^ f) initial_files)

(* The initial tree with [gone] removed and [added] present. *)
let edited ?(gone = []) ?(added = []) () =
  List.sort compare
    (List.filter (fun e -> not (List.mem e gone)) initial_tree @ added)

type row = {
  what : string;
  op : Vfs.handle -> unit;
  expect : Errno.t option; (* [None]: the op succeeds *)
  after : string list;
}

let row ?expect ?(after = initial_tree) what op = { what; op; expect; after }

let with_open (h : Vfs.handle) path flags f =
  let fd = h.Vfs.open_ path flags in
  Fun.protect ~finally:(fun () -> h.Vfs.close fd) (fun () -> f fd)

let namespace_rows =
  [
    row "O_CREAT|O_EXCL on an existing file" ~expect:EEXIST (fun h ->
        ignore (h.Vfs.open_ "/a" { Types.creat with Types.excl = true }));
    row "mkdir over an existing name" ~expect:EEXIST (fun h ->
        h.Vfs.mkdir "/a");
    row "unlink a missing name" ~expect:ENOENT (fun h -> h.Vfs.unlink "/x");
    row "unlink a directory" ~expect:EISDIR (fun h -> h.Vfs.unlink "/e");
    row "rmdir a missing name" ~expect:ENOENT (fun h -> h.Vfs.rmdir "/x");
    row "rmdir a file" ~expect:ENOTDIR (fun h -> h.Vfs.rmdir "/a");
    row "rmdir a non-empty directory" ~expect:ENOTEMPTY (fun h ->
        h.Vfs.rmdir "/d");
    row "rmdir an empty directory" ~after:(edited ~gone:[ "/e/" ] ())
      (fun h -> h.Vfs.rmdir "/e");
    row "rename a missing source" ~expect:ENOENT (fun h ->
        h.Vfs.rename "/x" "/y");
    row "rename a file onto itself" (fun h -> h.Vfs.rename "/a" "/a");
    row "rename a directory onto itself" (fun h -> h.Vfs.rename "/d" "/d");
    row "rename a directory into itself" ~expect:EINVAL (fun h ->
        h.Vfs.rename "/d" "/d/x");
    row "rename a directory into its subtree" ~expect:EINVAL (fun h ->
        h.Vfs.rename "/d" "/d/s/x");
    row "rename a file over a directory" ~expect:EISDIR (fun h ->
        h.Vfs.rename "/a" "/e");
    row "rename a directory over a file" ~expect:ENOTDIR (fun h ->
        h.Vfs.rename "/e" "/a");
    row "rename a directory over a non-empty directory" ~expect:ENOTEMPTY
      (fun h -> h.Vfs.rename "/e" "/d");
    row "rename a directory over an empty directory"
      ~after:
        (edited
           ~gone:[ "/d/"; "/d/f=/d/f"; "/d/s/" ]
           ~added:[ "/g/f=/d/f"; "/g/s/" ]
           ())
      (fun h -> h.Vfs.rename "/d" "/g");
    row "rename a file over a file"
      ~after:(edited ~gone:[ "/a=/a"; "/b=/b" ] ~added:[ "/a=/b" ] ())
      (fun h -> h.Vfs.rename "/b" "/a");
    row "rename onto an open file" ~expect:EINVAL (fun h ->
        with_open h "/a" Types.rdonly (fun _ -> h.Vfs.rename "/b" "/a"));
    row "pread at offset -1" ~expect:EINVAL (fun h ->
        with_open h "/a" Types.rdonly (fun fd ->
            ignore (h.Vfs.pread fd ~off:(-1) (Bytes.create 10) 10)));
    row "pwrite at offset -1" ~expect:EINVAL (fun h ->
        with_open h "/a" Types.wronly (fun fd ->
            ignore (h.Vfs.pwrite fd ~off:(-1) (Bytes.make 10 'Z') 10)));
  ]

(* Remount the unmounted image and fsck it, on the kinds that have a
   checker: the PMFS format (PMFS and every HiNFS flavour) and cowfs. *)
let fsck_violations kind device =
  match (kind : Fixtures.fs_kind) with
  | Hinfs_fs | Hinfs_nclfw | Hinfs_wb | Pmfs_fs ->
    let fs = Pmfs.mount device () in
    let v = Fsck.check fs in
    Pmfs.unmount fs;
    v
  | Cow_fs ->
    let fs = Hinfs_pmfs.Cowfs.mount device () in
    let v = Fsck.cow_violations fs in
    Hinfs_pmfs.Cowfs.unmount fs;
    v
  | _ -> []

(* The row's failures on one kind, as messages; an exception other than
   the row's errno is one too. *)
let run_row ~shards kind r =
  let label =
    Fmt.str "%s%s: %s" (Fixtures.name kind)
      (if shards > 1 then Fmt.str " (%d shards)" shards else "")
      r.what
  in
  let show = function None -> "ok" | Some e -> Errno.to_string e in
  let mismatch what pp want got =
    if want = got then []
    else [ Fmt.str "%s: %s: want %a, got %a" label what pp want pp got ]
  in
  let lines = Fmt.(list ~sep:sp string) in
  match
    Testkit.run_sim (fun engine ->
        let env =
          Fixtures.setup engine ~config:Testkit.small_config
            ~buffer_bytes:(256 * 4096) ~cache_pages:256 ~shards kind
        in
        let h = env.Fixtures.handle in
        populate h;
        let got =
          match r.op h with
          | () -> None
          | exception Errno.Fs_error (e, _) -> Some e
        in
        let after = tree h in
        env.Fixtures.teardown ();
        mismatch "outcome" Fmt.string (show r.expect) (show got)
        @ mismatch "tree" lines r.after after
        @ mismatch "fsck" lines [] (fsck_violations kind env.Fixtures.device))
  with
  | failures -> failures
  | exception e -> [ Fmt.str "%s: raised %s" label (Printexc.to_string e) ]

let test_namespace_table () =
  let failures =
    List.concat_map
      (fun r ->
        List.concat_map (fun kind -> run_row ~shards:1 kind r) all_kinds
        @ run_row ~shards:4 Fixtures.Hinfs_fs r)
      namespace_rows
  in
  if failures <> [] then
    Alcotest.failf "%d failure(s):@.%a" (List.length failures)
      Fmt.(list ~sep:cut string)
      failures

(* A file replaced by rename leaves the namespace like an unlinked one: its
   unsynced bytes were never fsync-covered, so sync_all must not book them
   (Fig. 2's numerator). *)
let test_rename_over_drops_victim_bytes () =
  let stats = Hinfs_stats.Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let h = Pmfs.handle (Pmfs.mkfs_and_mount d ~journal_blocks:32 ()) in
      let write path n =
        let fd = h.Vfs.open_ path Types.creat in
        ignore (h.Vfs.write fd (Bytes.make n 'x') n);
        h.Vfs.close fd
      in
      write "/v" 1000;
      write "/n" 300;
      h.Vfs.rename "/n" "/v";
      h.Vfs.sync_all ();
      Alcotest.(check int64) "only /n's bytes are fsync-covered" 300L
        (Hinfs_stats.Stats.fsync_bytes stats))

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
          Alcotest.test_case "rename over drops victim bytes" `Quick
            test_rename_over_drops_victim_bytes;
        ] );
      ( "namespace",
        [ Alcotest.test_case "table" `Quick test_namespace_table ] );
    ]
