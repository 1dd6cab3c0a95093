(* Shard soak: seeded exerciser for the sharded hot state.

   Part 1 — PMFS crash soak on a 4-shard image. A seeded op mix (creates,
   synchronous writes, reads, unlinks) runs over directories spread
   round-robin across the shards, salted with cross-shard renames — the
   operation that spans two journals and commits through the epoch
   record. Each round crashes at a seeded fence via the persistence
   recorder; every materialised image must mount fsck-clean, every durable
   file must survive with the right bytes, and an in-flight cross-shard
   rename must be visible at exactly one of its two names (src XOR dst)
   — the invariant the epoch commit exists to provide. Recovery's
   per-shard breakdown must sum to the total rolled back.

   Part 2 — HiNFS multi-shard smoke: a 4-shard HiNFS mount with per-shard
   buffer pools and writeback daemons absorbs buffered writes across all
   shards, commits a multi-shard sync_all through the epoch barrier, and
   remounts intact.

   Part 1 runs twice with the same seed and must reproduce bit for bit.
   SOAK_SEED=<int64> reseeds the run (default 4242). Wired into `dune
   runtest` through the shard-soak alias; also runnable directly:
   dune exec test/shard_soak.exe *)

module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Log = Hinfs_journal.Cacheline_log
module Epoch = Hinfs_journal.Epoch
module Errno = Hinfs_vfs.Errno
module Fsck = Hinfs_fsck.Fsck
module Fs = Hinfs.Fs
module Hconfig = Hinfs.Hconfig
module Buffer_pool = Hinfs.Buffer_pool
module Crashmc = Hinfs_crashmc.Crashmc
module Soak = Testkit.Soak

let soak = Soak.of_env "shard-soak" ~default:4242L
let seed = Soak.seed soak
let fail fmt = Soak.fail soak fmt
let shards = 4
let ndirs = 6
let rounds = 5
let ops_per_round = 120
let max_files = 24
let chunk_max = 4096
let root = Layout.root_ino
let config = { Config.default with Config.nvmm_size = 8 * 1024 * 1024 }

(* Oracle key: (directory index, name). Content is what the last
   successful synchronous write left there. *)
type key = int * string

type in_flight =
  | Idle
  | Op of key (* create / write / unlink racing the crash *)
  | Rename of { src : key; dst : key; data : Bytes.t }

let copy_oracle o =
  let c = Hashtbl.create (Hashtbl.length o) in
  Hashtbl.iter (fun k (ino, b) -> Hashtbl.replace c k (ino, Bytes.copy b)) o;
  c

let path (di, name) = Fmt.str "/d%d/%s" di name

(* Mount a crash image and check: fsck clean, per-shard recovery breakdown
   consistent, durable files intact, in-flight rename at exactly one name. *)
let verify_image engine ~label ~oracle ~in_flight image =
  let fs, stats, freport = Soak.mount_pmfs ~label soak engine config image in
  let by_shard = Pmfs.recovered_by_shard fs in
  if Array.length by_shard <> shards then
    fail "[%s] recovered_by_shard has %d entries, expected %d" label
      (Array.length by_shard) shards;
  let rolled_back = Stats.recovered_txns stats in
  if Array.fold_left ( + ) 0 by_shard <> rolled_back then
    fail "[%s] per-shard rollback breakdown sums to %d, stats say %d" label
      (Array.fold_left ( + ) 0 by_shard)
      rolled_back;
  if Array.length freport.Fsck.shard_reports <> shards then
    fail "[%s] fsck shard_reports has %d entries, expected %d" label
      (Array.length freport.Fsck.shard_reports)
      shards;
  let exempt k =
    match in_flight with
    | Idle -> false
    | Op k' -> k = k'
    | Rename { src; dst; _ } -> k = src || k = dst
  in
  let h = Pmfs.handle fs in
  Soak.check_files soak ~label h
    (Hashtbl.fold
       (fun k (_ino, content) acc ->
         if exempt k then acc
         else (path k, Crashmc.Exactly (Content (Bytes.to_string content))) :: acc)
       oracle []);
  (match in_flight with
  | Rename { src; dst; data } ->
    Soak.report soak ~label
      (Crashmc.exactly_one ~read_file:(Crashmc.read_file h) (path src, path dst)
         (Content (Bytes.to_string data)))
  | _ -> ());
  rolled_back

type round_outcome = {
  r_ops : int;
  r_renames : int;
  r_fence : int option;
  r_digest : string;
  r_rolled_back : int;
  r_by_shard : int list;
}

let run_pmfs_soak () =
  Soak.run soak (fun engine ->
      let outcomes = ref [] in
      let stats = Stats.create () in
      let d = Device.create engine stats config in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 ~shards () in
      let rng = Rng.create ~seed in
      (* Directories land round-robin: d0..d5 over 4 shards guarantees at
         least one same-shard and one cross-shard pair. *)
      let dirs =
        Array.init ndirs (fun i -> Pmfs.mkdir fs ~dir:root (Fmt.str "d%d" i))
      in
      let cross = ref false in
      for i = 0 to ndirs - 1 do
        for j = 0 to ndirs - 1 do
          if Pmfs.shard_of_ino fs dirs.(i) <> Pmfs.shard_of_ino fs dirs.(j)
          then cross := true
        done
      done;
      if not !cross then
        fail "directory placement left every directory in one shard";
      let oracle : (key, int * Bytes.t) Hashtbl.t = Hashtbl.create 64 in
      let in_flight = ref Idle in
      let ops = ref 0 and renames = ref 0 in
      let keys () =
        Array.of_list
          (List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) oracle []))
      in
      let pick () =
        let arr = keys () in
        if Array.length arr = 0 then None
        else Some arr.(Rng.int rng (Array.length arr))
      in
      let fresh_name () = Fmt.str "f%04d" (Rng.int rng 10_000) in
      let do_create () =
        if Hashtbl.length oracle < max_files then begin
          let di = Rng.int rng ndirs in
          let name = fresh_name () in
          if not (Hashtbl.mem oracle (di, name)) then begin
            in_flight := Op (di, name);
            let ino = Pmfs.create_file fs ~dir:dirs.(di) name in
            let len = 1 + Rng.int rng chunk_max in
            let data = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
            ignore
              (Pmfs.write fs ~ino ~off:0 ~src:data ~src_off:0 ~len ~sync:true);
            Hashtbl.replace oracle (di, name) (ino, data);
            incr ops
          end
        end
      in
      let do_write () =
        match pick () with
        | None -> do_create ()
        | Some k ->
          let ino, _ = Hashtbl.find oracle k in
          let len = 1 + Rng.int rng chunk_max in
          let data = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
          in_flight := Op k;
          Pmfs.truncate fs ~ino ~size:0;
          ignore
            (Pmfs.write fs ~ino ~off:0 ~src:data ~src_off:0 ~len ~sync:true);
          Hashtbl.replace oracle k (ino, data);
          incr ops
      in
      let do_read () =
        match pick () with
        | None -> ()
        | Some k ->
          let ino, content = Hashtbl.find oracle k in
          let len = Bytes.length content in
          let buf = Bytes.create len in
          let n = Pmfs.read fs ~ino ~off:0 ~len ~into:buf ~into_off:0 in
          if n <> len || not (Bytes.equal buf content) then
            fail "SILENT CORRUPTION: d%d/%s read back wrong" (fst k) (snd k);
          incr ops
      in
      let do_unlink () =
        match pick () with
        | None -> ()
        | Some ((di, name) as k) ->
          in_flight := Op k;
          Pmfs.unlink fs ~dir:dirs.(di) name;
          Hashtbl.remove oracle k;
          incr ops
      in
      let do_rename () =
        match pick () with
        | None -> ()
        | Some ((sdi, sname) as src) ->
          let ddi = Rng.int rng ndirs in
          let dname = fresh_name () in
          let dst = (ddi, dname) in
          if not (Hashtbl.mem oracle dst) && dst <> src then begin
            let ino, data = Hashtbl.find oracle src in
            in_flight := Rename { src; dst; data };
            Pmfs.rename fs ~src_dir:dirs.(sdi) ~src:sname
              ~dst_dir:dirs.(ddi) ~dst:dname;
            Hashtbl.remove oracle src;
            Hashtbl.replace oracle dst (ino, data);
            incr ops;
            if Pmfs.shard_of_ino fs dirs.(sdi) <> Pmfs.shard_of_ino fs dirs.(ddi)
            then incr renames
          end
      in
      for round = 1 to rounds do
        let point =
          Soak.arm ~label:(Fmt.str "shard-round-%d" round) rng d ~fences:400
            (fun () -> (copy_oracle oracle, !in_flight))
        in
        let ops0 = !ops and ren0 = !renames in
        for _ = 1 to ops_per_round do
          (match Rng.int rng 10 with
          | 0 | 1 -> do_create ()
          | 2 | 3 -> do_write ()
          | 4 | 5 | 6 -> do_read ()
          | 7 -> do_unlink ()
          | _ -> do_rename ());
          in_flight := Idle
        done;
        let crash = Soak.crash rng point in
        let image = crash.image and osnap, racing = crash.oracle in
        let label = Fmt.str "round-%d" round in
        let rolled_back =
          verify_image engine ~label ~oracle:osnap ~in_flight:racing image
        in
        (* Re-run the same verification on the same image — recovery must
           be idempotent shard by shard. *)
        ignore
          (verify_image engine ~label:(label ^ "-again") ~oracle:osnap
             ~in_flight:racing image);
        outcomes :=
          {
            r_ops = !ops - ops0;
            r_renames = !renames - ren0;
            r_fence = crash.fence;
            r_digest = Device.image_digest image;
            r_rolled_back = rolled_back;
            r_by_shard = [];
          }
          :: !outcomes
      done;
      if !renames = 0 then
        fail "no cross-shard rename ever ran (vacuous soak)";
      let freport = Soak.check_pmfs soak ~what:"live mount fails fsck" fs in
      if freport.Fsck.leaked_blocks > 0 || freport.Fsck.leaked_inodes > 0 then
        fail "live mount leaks: %d blocks, %d inodes"
          freport.Fsck.leaked_blocks freport.Fsck.leaked_inodes;
      List.rev !outcomes)

(* --- part 2: HiNFS multi-shard smoke --- *)

let run_hinfs_smoke () =
  Soak.run soak (fun engine ->
      let stats = Stats.create () in
      let d = Device.create engine stats config in
      let hcfg = { Hconfig.default with Hconfig.buffer_bytes = 512 * 1024 } in
      let fs = Fs.mkfs_and_mount d ~journal_blocks:32 ~shards ~hcfg () in
      if Fs.shard_count fs <> shards then
        fail "HiNFS shard_count %d, expected %d" (Fs.shard_count fs) shards;
      let pmfs = Fs.pmfs fs in
      let rng = Rng.create ~seed:(Int64.add seed 1L) in
      let dirs =
        Array.init ndirs (fun i -> Pmfs.mkdir pmfs ~dir:root (Fmt.str "h%d" i))
      in
      let files =
        Array.init 12 (fun i ->
            let di = i mod ndirs in
            let name = Fmt.str "buf%d" i in
            let ino = Pmfs.create_file pmfs ~dir:dirs.(di) name in
            let len = 2048 + Rng.int rng 6144 in
            let data = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
            ignore
              (Fs.write fs ~ino ~off:0 ~src:data ~src_off:0 ~len:(Bytes.length data)
                 ~sync:false);
            ( Fmt.str "/h%d/%s" di name,
              Crashmc.Exactly (Content (Bytes.to_string data)) ))
      in
      (* Buffered writes must have landed in more than one shard's pool. *)
      let pools_used = ref 0 in
      for s = 0 to shards - 1 do
        if Buffer_pool.used_count (Fs.shard_pool fs s) > 0 then incr pools_used
      done;
      if !pools_used < 2 then
        fail "buffered writes used %d shard pool(s); sharding is vacuous"
          !pools_used;
      (* Multi-shard sync_all: pending ordered transactions span shards and
         must commit through one epoch. *)
      let epoch_commits_before = Epoch.commits (Pmfs.epoch pmfs) in
      Fs.sync_all fs;
      if Epoch.commits (Pmfs.epoch pmfs) <= epoch_commits_before then
        fail "multi-shard sync_all did not commit through the epoch record";
      Fs.unmount fs;
      let fs2 = Fs.mount d ~daemons:false () in
      Soak.check_files soak ~label:"remount" (Fs.handle fs2)
        (Array.to_list files);
      ignore
        (Soak.check_pmfs soak ~what:"HiNFS remount fails fsck" (Fs.pmfs fs2));
      Fmt.str "%d files across %d dirs, %d shard pools used, %d epoch commit(s)"
        (Array.length files) ndirs !pools_used
        (Epoch.commits (Pmfs.epoch pmfs)))

let () =
  let o1 = run_pmfs_soak () in
  List.iteri
    (fun i r ->
      let at =
        match r.r_fence with
        | Some f -> Fmt.str "fence %d" f
        | None -> "round end"
      in
      Fmt.pr
        "round %d: %d ops (%d cross-shard renames), crash at %s, %d rolled back@."
        (i + 1) r.r_ops r.r_renames at r.r_rolled_back)
    o1;
  let smoke = run_hinfs_smoke () in
  Fmt.pr "hinfs multi-shard: %s@." smoke;
  Soak.deterministic soak "shard soak" o1 (run_pmfs_soak ());
  Soak.verdict soak
