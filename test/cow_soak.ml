(* Snapshot soak: the composition test for the CoW substrate. One seeded
   run drives a mixed op stream — creates, overwrites, unlinks,
   truncates, whole-FS transactions (committed and aborted), snapshots,
   clones, rollbacks, snapshot GC — with forced mid-op allocation faults,
   and holds the medium to the whole-image oracle:

   - after every completed operation the committed state digest is
     recorded; a crash image captured at a seeded mid-round fence (with
     seeded choices for the undecided lines) must mount as cowfs to a
     digest in that set, bit for bit, and pass cow fsck;
   - a DRAM oracle checks every live read back byte for byte, across
     rollbacks (the oracle rolls back with the snapshot);
   - every forced-fault abort is net-zero: same digest, same free-block
     count as before the failed operation;
   - obs span accounting balances at the end (commit and GC spans unwind
     correctly through every abort), and a second run with the same seed
     reproduces every counter and image digest bit for bit.

   SOAK_SEED=<int64> reseeds the run (default 4242). Wired into `dune
   runtest` through the snapshot-soak alias; also runnable directly:
   dune exec test/cow_soak.exe *)

module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Faultops = Hinfs_nvmm.Faultops
module Cowfs = Hinfs_pmfs.Cowfs
module Errno = Hinfs_vfs.Errno
module Fsck = Hinfs_fsck.Fsck
module Soak = Testkit.Soak

let soak = Soak.of_env "cow-soak" ~default:4242L
let seed = Soak.seed soak
let fail fmt = Soak.fail soak fmt
let rounds = 4
let ops_per_round = 60
let max_files = 12
let chunk_max = 6 * 1024
let root = Cowfs.root_ino

let config = { Config.default with Config.nvmm_size = 8 * 1024 * 1024 }

(* Per-round record compared across runs for bit-for-bit determinism. *)
type round_outcome = {
  r_ops_ok : int;
  r_aborted : int;
  r_capture_fence : int option;
  r_image_digest : string;
}

type outcome = {
  o_rounds : round_outcome list;
  o_commits : int;
  o_snapshots_taken : int;
  o_rollbacks : int;
  o_forced_aborts : int;
  o_final_digest : string;
}

let copy_oracle o =
  let c = Hashtbl.create (Hashtbl.length o) in
  Hashtbl.iter (fun k v -> Hashtbl.replace c k (Bytes.copy v)) o;
  c

(* Whole-image oracle: every crash image must mount to one of the states
   the run actually committed. *)
let verify_image engine ~label ~digests image =
  let stats = Stats.create () in
  let d = Device.of_snapshot engine stats config image in
  match Cowfs.mount d () with
  | exception e ->
    fail "[%s] crash image does not mount: %s" label (Printexc.to_string e)
  | fs ->
    let dg = Cowfs.state_digest fs in
    if not (Hashtbl.mem digests dg) then
      fail "[%s] crash image digest %s.. matches none of the %d committed states"
        label
        (String.sub dg 0 (min 12 (String.length dg)))
        (Hashtbl.length digests);
    (match Fsck.cow_violations fs with
    | [] -> ()
    | vs -> fail "[%s] crash image fails cow fsck: %s" label (String.concat "; " vs))

(* Commit and GC spans must unwind correctly through every abort: the
   accounting has to balance once the engine drains. *)
let run_soak () =
  Soak.run soak ~obs:"snapshot soak" (fun engine ->
      let stats = Stats.create () in
      let d = Device.create engine stats config in
      let fs = Cowfs.mkfs_and_mount d () in
      let fops = Faultops.create ~seed () in
      Cowfs.attach_faultops fs (Some fops);
      let rng = Rng.create ~seed in
      (* Committed-state digest set (the whole-image oracle), and the DRAM
         oracle for the live working tree. Snapshots carry a frozen copy
         of the DRAM oracle so a rollback can restore it. *)
      let digests : (string, unit) Hashtbl.t = Hashtbl.create 256 in
      let record () = Hashtbl.replace digests (Cowfs.state_digest fs) () in
      let oracle : (string, Bytes.t) Hashtbl.t = Hashtbl.create 32 in
      let snaps : (int, (string, Bytes.t) Hashtbl.t) Hashtbl.t =
        Hashtbl.create 8
      in
      record ();
      let ops_ok = ref 0
      and aborted = ref 0
      and snapshots_taken = ref 0
      and rollbacks = ref 0 in
      let names () =
        Array.of_list
          (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) oracle []))
      in
      let pick_name () =
        let arr = names () in
        if Array.length arr = 0 then None
        else Some arr.(Rng.int rng (Array.length arr))
      in
      let payload len = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
      (* Three ops (create, write, truncate), each committing its own
         state at top level: record every intermediate digest, or a crash
         image landing between them has no committed state to match. *)
      let write_file name data =
        let ino =
          match Cowfs.lookup fs ~dir:root name with
          | Some ino -> ino
          | None ->
            let ino = Cowfs.create_file fs ~dir:root name in
            if Cowfs.txn_depth fs = 0 then record ();
            ino
        in
        ignore
          (Cowfs.write fs ~ino ~off:0 ~src:data ~src_off:0
             ~len:(Bytes.length data) ~sync:true);
        if Cowfs.txn_depth fs = 0 then record ();
        Cowfs.truncate fs ~ino ~size:(Bytes.length data)
      in
      let do_write () =
        let name =
          if Hashtbl.length oracle < max_files && Rng.int rng 3 = 0 then
            Fmt.str "f%03d" (Rng.int rng 1000)
          else match pick_name () with
            | Some n -> n
            | None -> Fmt.str "f%03d" (Rng.int rng 1000)
        in
        let data = payload (1 + Rng.int rng chunk_max) in
        write_file name data;
        Hashtbl.replace oracle name data;
        incr ops_ok
      in
      let do_unlink () =
        match pick_name () with
        | None -> ()
        | Some name ->
          let ino = Option.get (Cowfs.lookup fs ~dir:root name) in
          ignore ino;
          Cowfs.unlink fs ~dir:root name;
          Hashtbl.remove oracle name;
          incr ops_ok
      in
      (* A committed transaction lands as one atomic batch (one digest);
         an aborted one must leave no trace at all. *)
      let do_txn () =
        let digest0 = Cowfs.state_digest fs in
        let oracle0 = copy_oracle oracle in
        Cowfs.txn_begin fs;
        let n = 2 + Rng.int rng 3 in
        let staged = ref [] in
        for i = 0 to n - 1 do
          let name = Fmt.str "f%03d" (Rng.int rng 1000) in
          let data = payload (1 + Rng.int rng chunk_max) in
          write_file name data;
          staged := (name, data) :: !staged;
          ignore i
        done;
        if Rng.int rng 2 = 0 then begin
          Cowfs.txn_commit fs;
          (* [staged] is newest-first; replay oldest-first so that when a
             name was written twice inside the transaction the oracle
             keeps the newest data, as the file system does. *)
          List.iter (fun (n, d) -> Hashtbl.replace oracle n d)
            (List.rev !staged);
          incr ops_ok
        end
        else begin
          Cowfs.txn_abort fs;
          Hashtbl.reset oracle;
          Hashtbl.iter (Hashtbl.replace oracle) oracle0;
          if Cowfs.state_digest fs <> digest0 then
            fail "aborted transaction left a trace (digest moved)";
          incr aborted
        end
      in
      let do_snapshot () =
        if Hashtbl.length snaps < 4 then begin
          let id = Cowfs.snapshot fs in
          Hashtbl.replace snaps id (copy_oracle oracle);
          incr snapshots_taken;
          incr ops_ok
        end
      in
      let snap_ids () =
        Array.of_list (List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) snaps []))
      in
      let do_rollback () =
        let ids = snap_ids () in
        if Array.length ids > 0 then begin
          let id = ids.(Rng.int rng (Array.length ids)) in
          Cowfs.rollback fs ~snap_id:id;
          Hashtbl.reset oracle;
          Hashtbl.iter (Hashtbl.replace oracle) (Hashtbl.find snaps id);
          incr rollbacks;
          incr ops_ok
        end
      in
      let do_snapshot_delete () =
        let ids = snap_ids () in
        if Array.length ids > 0 then begin
          let id = ids.(Rng.int rng (Array.length ids)) in
          Cowfs.snapshot_delete fs ~snap_id:id;
          Hashtbl.remove snaps id;
          incr ops_ok
        end
      in
      (* Forced mid-op allocation fault: the operation must fail ENOSPC
         and leave digest and free-block count exactly where they were. *)
      (* Exactly one op under the forced fault — an existing file, a bare
         write — so "net-zero" means net-zero against the digest taken
         right before it. *)
      let do_forced_abort () =
        match pick_name () with
        | None -> ()
        | Some name ->
          let ino = Option.get (Cowfs.lookup fs ~dir:root name) in
          let digest0 = Cowfs.state_digest fs in
          let free0 = Cowfs.free_data_blocks fs in
          let data = payload (1 + Rng.int rng chunk_max) in
          Faultops.force fops Faultops.Block_alloc ~after:(Rng.int rng 3);
          (match
             Cowfs.write fs ~ino ~off:0 ~src:data ~src_off:0
               ~len:(Bytes.length data) ~sync:true
           with
          | _ -> fail "forced block-alloc fault never fired"
          | exception Errno.Fs_error (Errno.ENOSPC, _) -> ());
          Faultops.disarm fops Faultops.Block_alloc;
          if Cowfs.state_digest fs <> digest0 then
            fail "forced abort left a trace (digest moved)";
          if Cowfs.free_data_blocks fs <> free0 then
            fail "forced abort leaked blocks (%d -> %d)" free0
              (Cowfs.free_data_blocks fs);
          incr aborted
      in
      let verify_reads () =
        Hashtbl.iter
          (fun name content ->
            match Cowfs.lookup fs ~dir:root name with
            | None -> fail "oracle file %S missing from working tree" name
            | Some ino ->
              let len = Bytes.length content in
              let buf = Bytes.create (max 1 len) in
              let n = Cowfs.read fs ~ino ~off:0 ~len ~into:buf ~into_off:0 in
              if n <> len || not (Bytes.equal (Bytes.sub buf 0 n) content) then
                fail "SILENT CORRUPTION: %S reads back wrong" name)
          oracle
      in
      let round_outcomes = ref [] in
      for round = 1 to rounds do
        (* Crash at a seeded mid-round fence. *)
        let point =
          Soak.arm ~label:(Fmt.str "round-%d" round) rng d ~fences:200 ignore
        in
        let ok0 = !ops_ok and aborted0 = !aborted in
        for _ = 1 to ops_per_round do
          (match Rng.int rng 12 with
          | 0 | 1 | 2 | 3 | 4 -> do_write ()
          | 5 -> do_unlink ()
          | 6 | 7 -> do_txn ()
          | 8 -> do_snapshot ()
          | 9 -> do_rollback ()
          | 10 -> do_snapshot_delete ()
          | _ -> do_forced_abort ());
          record ();
          verify_reads ()
        done;
        (* Crash: the captured mid-round state if one exists, else the
           end-of-round medium; either way the image must mount to a
           committed state. *)
        let crash = Soak.crash rng point in
        verify_image engine ~label:(Fmt.str "round-%d" round) ~digests
          crash.image;
        round_outcomes :=
          {
            r_ops_ok = !ops_ok - ok0;
            r_aborted = !aborted - aborted0;
            r_capture_fence = crash.fence;
            r_image_digest = Digest.to_hex (Device.image_digest crash.image);
          }
          :: !round_outcomes
      done;
      (* End-of-run hygiene: the live mount is fsck-clean once every
         snapshot is deleted, and everything those snapshots pinned has
         been handed back. *)
      (match Fsck.cow_violations fs with
      | [] -> ()
      | vs -> fail "live mount fails cow fsck: %s" (String.concat "; " vs));
      Hashtbl.iter (fun id _ -> Cowfs.snapshot_delete fs ~snap_id:id) snaps;
      Hashtbl.reset snaps;
      (match Fsck.cow_violations fs with
      | [] -> ()
      | vs ->
        fail "live mount fails cow fsck after snapshot gc: %s"
          (String.concat "; " vs));
      verify_reads ();
      {
        o_rounds = List.rev !round_outcomes;
        o_commits = Cowfs.commits fs;
        o_snapshots_taken = !snapshots_taken;
        o_rollbacks = !rollbacks;
        o_forced_aborts = !aborted;
        o_final_digest = Cowfs.state_digest fs;
      })

let () =
  let o1 = run_soak () in
  List.iteri
    (fun i r ->
      let at =
        match r.r_capture_fence with
        | Some _ -> "mid-round fence"
        | None -> "round end"
      in
      Fmt.pr "round %d: %d ok / %d aborted ops, crash image at %s (%s..)@."
        (i + 1) r.r_ops_ok r.r_aborted at
        (String.sub r.r_image_digest 0 12))
    o1.o_rounds;
  Fmt.pr "cow-soak: %d commits, %d snapshots, %d rollbacks, %d aborts (txn + forced)@."
    o1.o_commits o1.o_snapshots_taken o1.o_rollbacks o1.o_forced_aborts;
  (* Non-vacuity: the soak must actually have exercised the machinery. *)
  if o1.o_snapshots_taken = 0 then fail "soak never took a snapshot";
  if o1.o_rollbacks = 0 then fail "soak never rolled back";
  if o1.o_forced_aborts = 0 then fail "soak never aborted an operation";
  if not (List.exists (fun r -> r.r_capture_fence <> None) o1.o_rounds) then
    fail "no round captured a mid-round crash image";
  (* Bit-for-bit reproducibility, images included. *)
  Soak.deterministic soak "cow soak" o1 (run_soak ());
  Soak.verdict soak
