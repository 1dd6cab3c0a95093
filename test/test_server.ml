(* Serving-layer unit tests: wire codec round-trips, the request loop
   end to end, lease expiry reclaim, generation-stamped handle staleness
   (unlink+recreate, rename-over, rollback/snapshot-delete), bounded
   open-file-cache eviction with flush-on-evict durability, a failed
   flush-on-evict (flushed once, dropped, error propagated),
   handle-table determinism across seeded runs, and a handle table that
   holds live handles only. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno
module Pmfs = Hinfs_pmfs.Pmfs
module Cowfs = Hinfs_pmfs.Cowfs
module Log = Hinfs_journal.Cacheline_log
module Faultops = Hinfs_nvmm.Faultops
module Fs = Hinfs.Fs
module Wire = Hinfs_server.Wire
module Server = Hinfs_server.Server
module Session = Hinfs_server.Session
module Ofcache = Hinfs_server.Ofcache
module Fhandle = Hinfs_server.Fhandle
module Clients = Hinfs_server.Clients

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- wire codec --- *)

let roundtrip_req r = Wire.decode_req (Wire.encode_req r)
let roundtrip_reply r = Wire.decode_reply (Wire.encode_reply r)

let test_codec_roundtrip () =
  let fh = Wire.fh_make ~slot:123456 ~gen:789 in
  check_int "fh slot" 123456 (Wire.fh_slot fh);
  check_int "fh gen" 789 (Wire.fh_gen fh);
  let reqs =
    [
      Wire.Lookup "/a/b";
      Wire.Getattr fh;
      Wire.Read (fh, 4096, 512);
      Wire.Write (fh, 0, String.make 200 'x', true);
      Wire.Write (fh, 65536, "", false);
      Wire.Create "/new";
      Wire.Remove "/old";
      Wire.Rename ("/from", "/to");
      Wire.Commit fh;
    ]
  in
  List.iter (fun r -> check_bool (Wire.req_name r) true (roundtrip_req r = r)) reqs;
  let st =
    {
      Types.ino = 42;
      kind = Types.Regular;
      size = 12345;
      nlink = 1;
      blocks = 4;
      mtime_ns = 99L;
    }
  in
  let replies =
    [
      Wire.R_handle (fh, st);
      Wire.R_attr { st with kind = Types.Directory };
      Wire.R_data (String.make 300 'd');
      Wire.R_written (4096, 7L);
      Wire.R_ok 7L;
      Wire.R_err Errno.ESTALE;
      Wire.R_err Errno.EIO;
      Wire.R_expired;
    ]
  in
  List.iter (fun r -> check_bool "reply" true (roundtrip_reply r = r)) replies

(* --- helpers --- *)

let expect_handle = function
  | Wire.R_handle (fh, st) -> (fh, st)
  | Wire.R_err e -> Alcotest.failf "expected handle, got %s" (Errno.to_string e)
  | _ -> Alcotest.fail "expected R_handle"

let expect_data = function
  | Wire.R_data d -> d
  | Wire.R_err e -> Alcotest.failf "expected data, got %s" (Errno.to_string e)
  | _ -> Alcotest.fail "expected R_data"

let expect_err = function
  | Wire.R_err e -> e
  | _ -> Alcotest.fail "expected R_err"

let expect_ok = function
  | Wire.R_ok _ | Wire.R_written _ -> ()
  | Wire.R_err e -> Alcotest.failf "expected ok, got %s" (Errno.to_string e)
  | _ -> Alcotest.fail "expected R_ok"

let with_server ?workers ?cache_cap ?lease_ns engine vfs f =
  let srv = Server.create ?workers ?cache_cap ?lease_ns engine vfs in
  Server.start srv;
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

(* --- end-to-end request loop --- *)

let test_serve_basic () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      with_server engine (Pmfs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let fh, st = expect_handle (rpc (Wire.Create "/f")) in
          check_int "fresh file is empty" 0 st.Types.size;
          expect_ok (rpc (Wire.Write (fh, 0, String.make 100 'a', false)));
          expect_ok (rpc (Wire.Write (fh, 100, String.make 50 'b', true)));
          expect_ok (rpc (Wire.Commit fh));
          let data = expect_data (rpc (Wire.Read (fh, 95, 10))) in
          check_string "read spans the write boundary" "aaaaabbbbb" data;
          (match rpc (Wire.Getattr fh) with
          | Wire.R_attr st -> check_int "size after writes" 150 st.Types.size
          | _ -> Alcotest.fail "expected R_attr");
          (* lookup of the same path returns the same handle *)
          let fh2, _ = expect_handle (rpc (Wire.Lookup "/f")) in
          check_bool "stable handle" true (Int64.equal fh fh2);
          (* path errors surface as errno replies, not exceptions *)
          check_bool "lookup of missing path" true
            (expect_err (rpc (Wire.Lookup "/missing")) = Errno.ENOENT);
          expect_ok (rpc (Wire.Rename ("/f", "/g")));
          let data = expect_data (rpc (Wire.Read (fh, 0, 5))) in
          check_string "handle follows rename" "aaaaa" data;
          expect_ok (rpc (Wire.Remove "/g"));
          check_bool "handle stale after remove" true
            (expect_err (rpc (Wire.Getattr fh)) = Errno.ESTALE);
          (* exactly the two deliberate failures above: ENOENT + ESTALE *)
          check_int "no other fs-level failures leaked" 2
            (Server.err_replies srv)))

(* --- lease expiry --- *)

let test_lease_expiry_reclaim () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      with_server ~lease_ns:1_000_000L engine (Pmfs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let fh, _ = expect_handle (Server.rpc srv ~sid (Wire.Create "/f")) in
          expect_ok
            (Server.rpc srv ~sid (Wire.Write (fh, 0, String.make 64 'w', false)));
          check_int "open cached" 1 (Ofcache.length (Server.cache srv));
          (* go idle past the lease: the reaper must reclaim the session
             and its cached open with no traffic arriving *)
          Proc.delay 5_000_000L;
          check_int "session swept while idle" 0
            (Session.live (Server.sessions srv));
          check_int "cached open reclaimed" 0
            (Ofcache.length (Server.cache srv));
          (* the lapsed sid now gets R_expired... *)
          (match Server.rpc srv ~sid (Wire.Getattr fh) with
          | Wire.R_expired -> ()
          | _ -> Alcotest.fail "expected R_expired for lapsed session");
          (* ...but handles are server-global: a fresh session keeps using
             the same fh, and the flush-on-reclaim preserved the data *)
          let sid2 = Server.establish srv in
          let data =
            expect_data (Server.rpc srv ~sid:sid2 (Wire.Read (fh, 0, 64)))
          in
          check_string "data survived reclaim" (String.make 64 'w') data))

(* --- generation bump across unlink+recreate --- *)

let test_generation_bump () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      with_server engine (Pmfs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let fh1, _ = expect_handle (rpc (Wire.Create "/f")) in
          expect_ok (rpc (Wire.Remove "/f"));
          let fh2, _ = expect_handle (rpc (Wire.Create "/f")) in
          check_bool "recreate at the same path mints a new generation" true
            (Wire.fh_gen fh2 > Wire.fh_gen fh1);
          check_bool "old handle stays stale" true
            (expect_err (rpc (Wire.Read (fh1, 0, 1))) = Errno.ESTALE);
          check_bool "old handle stale for writes too" true
            (expect_err (rpc (Wire.Write (fh1, 0, "x", true))) = Errno.ESTALE);
          (match rpc (Wire.Getattr fh2) with
          | Wire.R_attr _ -> ()
          | _ -> Alcotest.fail "fresh handle must resolve");
          (* rename-over clobbers the destination's handle the same way *)
          let fh3, _ = expect_handle (rpc (Wire.Create "/g")) in
          expect_ok (rpc (Wire.Rename ("/f", "/g")));
          check_bool "renamed-over handle is stale" true
            (expect_err (rpc (Wire.Getattr fh3)) = Errno.ESTALE);
          check_bool "moved handle survives" true
            (match rpc (Wire.Getattr fh2) with
            | Wire.R_attr _ -> true
            | _ -> false)))

(* --- bounded handle table --- *)

(* Every CREATE/REMOVE cycle mints a handle and stales it: the table keeps
   only the live handles, yet every stale one still gets ESTALE. *)
let test_handle_table_bounded () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      with_server engine (Pmfs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let keep, _ = expect_handle (rpc (Wire.Create "/keep")) in
          let cycles = 10_000 in
          let old =
            List.init cycles (fun _ ->
                let fh, _ = expect_handle (rpc (Wire.Create "/f")) in
                expect_ok (rpc (Wire.Remove "/f"));
                fh)
          in
          let handles = Server.handles srv in
          check_int "one live handle" 1 (Fhandle.live handles);
          check_int "the table holds the live handles only" 1
            (List.length (Fhandle.dump handles));
          check_int "every handle minted is counted" (cycles + 1)
            (Fhandle.total handles);
          List.iter
            (fun fh ->
              check_bool "a removed file's handle is stale" true
                (expect_err (rpc (Wire.Getattr fh)) = Errno.ESTALE))
            old;
          check_int "each stale handle answered with ESTALE" cycles
            (Fhandle.estale_total handles);
          match rpc (Wire.Getattr keep) with
          | Wire.R_attr _ -> ()
          | _ -> Alcotest.fail "the live handle must resolve"))

(* --- bounded open-file cache --- *)

let test_bounded_eviction () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      with_server ~cache_cap:4 engine (Pmfs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let fhs =
            List.init 8 (fun i ->
                let path = Printf.sprintf "/f%d" i in
                let fh, _ = expect_handle (rpc (Wire.Create path)) in
                expect_ok
                  (rpc (Wire.Write (fh, 0, String.make 32 (Char.chr (65 + i)), false)));
                fh)
          in
          let cache = Server.cache srv in
          check_int "cache stays bounded" 4 (Ofcache.length cache);
          check_bool "evictions happened" true (Ofcache.evictions cache >= 4);
          (* flush-on-evict: unstable writes to evicted files are durable;
             reads (which re-open) still see them *)
          List.iteri
            (fun i fh ->
              let data = expect_data (rpc (Wire.Read (fh, 0, 32))) in
              check_string
                (Printf.sprintf "f%d readable after eviction" i)
                (String.make 32 (Char.chr (65 + i)))
                data)
            fhs;
          check_int "still bounded after re-opens" 4 (Ofcache.length cache)))

(* --- a failed eviction flush: once, entry dropped, error propagated --- *)

let test_failed_evict_flush () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs ~shards:4 ~hcfg:Testkit.small_hcfg engine in
      let h = Fs.handle fs in
      let cache = Ofcache.create h ~cap:1 in
      let open_ path = h.Vfs.open_ path { Types.creat with Types.read = true } in
      let ino_of fd = (h.Vfs.fstat fd).Types.ino in
      let shard_of fd = Pmfs.shard_of_ino (Fs.pmfs fs) (ino_of fd) in
      for s = 0 to 3 do
        h.Vfs.mkdir (Printf.sprintf "/d%d" s)
      done;
      (* a dirty cached open on some shard... *)
      let vfd = open_ "/d0/victim" in
      ignore (Ofcache.insert cache ~ino:(ino_of vfd) ~fd:vfd ~sid:1);
      ignore (h.Vfs.pwrite vfd ~off:0 (Bytes.make 64 'v') 64);
      Ofcache.mark_dirty cache (ino_of vfd);
      (* ...and an open on a different shard, whose insert must evict it *)
      let rec pick s =
        let fd = open_ (Printf.sprintf "/d%d/other" s) in
        if shard_of fd <> shard_of vfd then fd
        else begin
          h.Vfs.close fd;
          pick (s + 1)
        end
      in
      let ofd = pick 1 in
      (* The eviction flush's commit meets a one-shot journal fault. *)
      let fo = Faultops.create ~seed:1L () in
      Pmfs.attach_faultops (Fs.pmfs fs) (Some fo);
      Faultops.force fo Faultops.Journal_slot ~after:0;
      check_bool "eviction flush error propagates" true
        (match Ofcache.insert cache ~ino:(ino_of ofd) ~fd:ofd ~sid:1 with
        | _ -> false
        | exception Log.Journal_full -> true);
      check_int "flushed once, not retried" 1
        (Faultops.opportunities fo Faultops.Journal_slot);
      check_int "victim entry dropped" 0 (Ofcache.length cache);
      check_int "one eviction counted" 1 (Ofcache.evictions cache);
      (* healthy shards keep serving: the retry now finds room *)
      ignore (Ofcache.insert cache ~ino:(ino_of ofd) ~fd:ofd ~sid:1);
      check_int "retry cached" 1 (Ofcache.length cache);
      ignore (h.Vfs.pwrite ofd ~off:0 (Bytes.of_string "ok") 2);
      h.Vfs.fsync ofd;
      let buf = Bytes.create 2 in
      ignore (h.Vfs.pread ofd ~off:0 buf 2);
      check_string "healthy shard unaffected" "ok" (Bytes.to_string buf))

(* --- handle-table determinism across seeded runs --- *)

let fleet_run () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let srv = Server.create ~workers:4 ~cache_cap:8 engine (Pmfs.handle fs) in
      Server.start srv;
      let cfg =
        {
          Clients.default with
          Clients.clients = 8;
          ops_per_client = 30;
          hot_files = 16;
          seed = 4242L;
        }
      in
      let ops = Clients.run engine srv cfg in
      Server.stop srv;
      (ops, Server.served srv, Fhandle.dump (Server.handles srv), Proc.now ()))

let test_fleet_determinism () =
  let ops1, served1, dump1, t1 = fleet_run () in
  let ops2, served2, dump2, t2 = fleet_run () in
  check_int "same ops" ops1 ops2;
  check_int "same requests served" served1 served2;
  check_bool "some requests served" true (served1 > 8 * 30);
  check_bool "identical handle tables" true (dump1 = dump2);
  check_bool "handle table is non-trivial" true (List.length dump1 > 8);
  check_bool "identical virtual end time" true (Int64.equal t1 t2)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [ Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip ] );
      ( "serve",
        [
          Alcotest.test_case "request loop end to end" `Quick test_serve_basic;
          Alcotest.test_case "lease expiry reclaim" `Quick
            test_lease_expiry_reclaim;
        ] );
      ( "handles",
        [
          Alcotest.test_case "generation bump on recreate" `Quick
            test_generation_bump;
          Alcotest.test_case "fleet determinism" `Quick test_fleet_determinism;
          Alcotest.test_case "table holds live handles only" `Quick
            test_handle_table_bounded;
        ] );
      ( "ofcache",
        [
          Alcotest.test_case "bounded eviction" `Quick test_bounded_eviction;
          Alcotest.test_case "failed evict flush propagates" `Quick
            test_failed_evict_flush;
        ] );
    ]
