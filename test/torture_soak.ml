(* Torture soak: the composition test for crash-during-recovery idempotence
   and failure-atomic operations. One seeded run composes every failure
   mode the robustness work covers, on a single oracle-checked op mix:

   - media faults (low-rate poison + transient) on the live device; an
     unrecoverable metadata fault may degrade the whole (unsharded) mount
     read-only mid-round — EROFS then counts as a failed op and a
     round-end online repair pass re-admits the mount;
   - operation-level mid-transaction faults (forced ENOSPC, out-of-inodes,
     journal exhaustion) through {!Hinfs_nvmm.Faultops};
   - a crash captured at a seeded fence *mid-round* via the persistence
     recorder, materialised with seeded choices for the undecided lines;
   - recovery of that crash image run under the recorder too, a second
     crash materialised at a seeded *recovery* fence, and a second
     recovery over the nested image.

   Acceptance, per round: every mount of a (possibly nested) crash image
   is fsck-clean, durable completed operations survive with the right
   bytes, and the live mount ends the run leak-free. Across the whole run:
   every failure kind actually fired (non-vacuous), at least one recovery
   rolled a transaction back, at least one nested re-crash image was
   verified, and a second run with the same seed reproduces every image
   digest bit for bit.

   SOAK_SEED=<int64> reseeds the run (default 1337). Wired into `dune
   runtest` through the torture-soak alias; also runnable directly:
   dune exec test/torture_soak.exe *)

module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Fault = Hinfs_nvmm.Fault
module Faultops = Hinfs_nvmm.Faultops
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Log = Hinfs_journal.Cacheline_log
module Errno = Hinfs_vfs.Errno
module Fsck = Hinfs_fsck.Fsck
module Repair = Hinfs_fsck.Repair
module Crashmc = Hinfs_crashmc.Crashmc
module Soak = Testkit.Soak

let soak = Soak.of_env "torture-soak" ~default:1337L
let seed = Soak.seed soak
let fail fmt = Soak.fail soak fmt
let rounds = 6
let ops_per_round = 80
let max_files = 16
let root = Layout.root_ino
let chunk_max = 8 * 1024

let config = { Config.default with Config.nvmm_size = 8 * 1024 * 1024 }

(* Oracle entry: contents as of the last *successful* operation, plus a
   taint flag once a failed or EIO-hit write may have torn the data range
   (PMFS journals metadata only, so a rolled-back overwrite legally leaves
   a mix of old and new bytes; the metadata — size, block structure — must
   still be exact). *)
type entry = { ino : int; content : Bytes.t; tainted : bool }

let copy_oracle oracle =
  let c = Hashtbl.create (Hashtbl.length oracle) in
  Hashtbl.iter
    (fun name e -> Hashtbl.replace c name { e with content = Bytes.copy e.content })
    oracle;
  c

(* Per-round record compared across runs for bit-for-bit determinism. *)
type round_outcome = {
  r_ops_ok : int;
  r_ops_failed : int;
  r_capture_fence : int option;
  r_digest1 : string; (* first crash image *)
  r_rolled_back1 : int;
  r_digest2 : string option; (* nested crash-during-recovery image *)
  r_rolled_back2 : int option;
}

type outcome = {
  o_rounds : round_outcome list;
  o_injected : (string * int) list;
  o_mount_repairs : int;  (* in-place heals of a degraded mount *)
  o_live_leaks : int * int;
  o_live_violations : int;
}

(* Verify one crash image: mount (running recovery), fsck, and check the
   durability oracle captured with the image. [in_flight] is the operation
   that was racing the crash — its target is exempt from every check
   (either outcome of an unfinished operation is legal). With [recrash],
   the mount runs under the persistence recorder and the crash state at a
   fence seeded from that RNG inside the recovery window is returned for
   nested re-crashing. *)
let verify_image engine ~label ~oracle ~in_flight ?recrash image =
  let recovery = ref None in
  let on_device d =
    recovery :=
      Option.map
        (fun rng ->
          Soak.arm ~label:(label ^ "-recovery") rng d ~fences:8 ignore)
        recrash
  in
  let fs, stats, _ =
    Soak.mount_pmfs ~on_device ~label soak engine config image
  in
  let recovery_state =
    Option.map (fun (state, (), _) -> state) (Option.bind !recovery Soak.disarm)
  in
  Soak.check_files soak ~label (Pmfs.handle fs)
    (Hashtbl.fold
       (fun name e acc ->
         if Some name = in_flight then acc
         else
           ( "/" ^ name,
             Crashmc.Exactly
               (if e.tainted then Sized (Bytes.length e.content)
                else Content (Bytes.to_string e.content)) )
           :: acc)
       oracle []);
  (Stats.recovered_txns stats, recovery_state)

(* Soak under the observability sink: crash-image mounts, rollbacks and
   forced mid-op failures all unwind through instrumented spans, and the
   accounting must still balance at the end. *)
let run_soak () =
  Soak.run soak ~obs:"torture" (fun engine ->
      let stats = Stats.create () in
      let d = Device.create engine stats config in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 () in
      let fops =
        Faultops.create ~block_alloc_rate:0.02 ~inode_alloc_rate:0.05
          ~journal_slot_rate:0.01 ~seed ()
      in
      Pmfs.attach_faultops fs (Some fops);
      let fault = Fault.create ~poison_rate:1e-4 ~transient_rate:5e-4 ~seed () in
      Device.set_fault_model d (Some fault);
      let rng = Rng.create ~seed in
      let oracle : (string, entry) Hashtbl.t = Hashtbl.create 64 in
      let names () =
        Array.of_list
          (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) oracle []))
      in
      let pick_name () =
        let arr = names () in
        if Array.length arr = 0 then None
        else Some arr.(Rng.int rng (Array.length arr))
      in
      let ops_ok = ref 0 and ops_failed = ref 0 in
      let mount_repairs = ref 0 in
      let in_flight = ref None in
      (* A failed or EIO-hit write must be metadata-atomic, but the data
         range may be torn: rebase the oracle on what is actually there
         and taint the entry. *)
      let rebase name =
        match Hashtbl.find_opt oracle name with
        | None -> ()
        | Some e ->
          let size = Pmfs.inode_size fs e.ino in
          let content =
            if size = 0 then Bytes.empty
            else begin
              let buf = Bytes.create size in
              match
                Pmfs.read fs ~ino:e.ino ~off:0 ~len:size ~into:buf ~into_off:0
              with
              | _ -> buf
              | exception Errno.Fs_error (Errno.EIO, _) -> buf
            end
          in
          Hashtbl.replace oracle name { e with content; tainted = true }
      in
      let do_create () =
        if Hashtbl.length oracle < max_files then begin
          let name = Fmt.str "t%04d" (Rng.int rng 10_000) in
          if not (Hashtbl.mem oracle name) then begin
            in_flight := Some name;
            match Pmfs.create_file fs ~dir:root name with
            | ino ->
              Hashtbl.replace oracle name
                { ino; content = Bytes.empty; tainted = false };
              incr ops_ok
            | exception
                ( Errno.Fs_error ((Errno.ENOSPC | Errno.EIO | Errno.EROFS), _)
                | Log.Journal_full ) ->
              incr ops_failed
          end
        end
      in
      let do_write () =
        match pick_name () with
        | None -> do_create ()
        | Some name ->
          let e = Hashtbl.find oracle name in
          let off = Rng.int rng (Bytes.length e.content + 1) in
          let len = 1 + Rng.int rng chunk_max in
          let src = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
          in_flight := Some name;
          (match
             Pmfs.write fs ~ino:e.ino ~off ~src ~src_off:0 ~len ~sync:true
           with
          | n ->
            let newlen = max (Bytes.length e.content) (off + n) in
            let updated = Bytes.make newlen '\000' in
            Bytes.blit e.content 0 updated 0 (Bytes.length e.content);
            Bytes.blit src 0 updated off n;
            Hashtbl.replace oracle name { e with content = updated };
            incr ops_ok
          | exception
              ( Errno.Fs_error ((Errno.ENOSPC | Errno.EIO | Errno.EROFS), _)
              | Log.Journal_full ) ->
            incr ops_failed;
            rebase name)
      in
      let do_read () =
        match pick_name () with
        | None -> ()
        | Some name ->
          let e = Hashtbl.find oracle name in
          let len = Bytes.length e.content in
          if len > 0 then begin
            in_flight := Some name;
            let buf = Bytes.create len in
            match Pmfs.read fs ~ino:e.ino ~off:0 ~len ~into:buf ~into_off:0 with
            | n ->
              if
                (not e.tainted)
                && (n <> len || not (Bytes.equal (Bytes.sub buf 0 n) e.content))
              then fail "SILENT CORRUPTION: %S read back wrong" name
              else incr ops_ok
            | exception Errno.Fs_error (Errno.EIO, _) -> incr ops_failed
          end
      in
      let do_unlink () =
        match pick_name () with
        | None -> ()
        | Some name -> (
          let e = Hashtbl.find oracle name in
          ignore e.ino;
          in_flight := Some name;
          match Pmfs.unlink fs ~dir:root name with
          | () ->
            Hashtbl.remove oracle name;
            incr ops_ok
          | exception
              ( Errno.Fs_error ((Errno.ENOSPC | Errno.EIO | Errno.EROFS), _)
              | Log.Journal_full ) ->
            incr ops_failed)
      in
      let round_outcomes = ref [] in
      for round = 1 to rounds do
        (* Crash at a seeded mid-round fence, with the oracle and the
           racing operation as they stood there. *)
        let point =
          Soak.arm ~label:(Fmt.str "round-%d" round) rng d ~fences:300
            (fun () -> (copy_oracle oracle, !in_flight))
        in
        let ok0 = !ops_ok and failed0 = !ops_failed in
        let debug_leaks = Sys.getenv_opt "LEAK_DEBUG" <> None in
        let last_leaked = ref 0 in
        for opi = 1 to ops_per_round do
          let kind = Rng.int rng 10 in
          (match kind with
          | 0 | 1 -> do_create ()
          | 2 | 3 | 4 | 5 -> do_write ()
          | 6 | 7 | 8 -> do_read ()
          | _ -> do_unlink ());
          if debug_leaks then begin
            let r = Fsck.check_pmfs fs in
            if r.Fsck.leaked_blocks <> !last_leaked then begin
              Fmt.epr "LEAK round=%d op=%d kind=%d target=%a: %d -> %d leaked@."
                round opi kind
                Fmt.(option string)
                !in_flight !last_leaked r.Fsck.leaked_blocks;
              last_leaked := r.Fsck.leaked_blocks
            end
          end;
          in_flight := None
        done;
        (* Crash: the captured mid-round state if one exists (a real
           mid-transaction image), else the end-of-round medium. *)
        let crash = Soak.crash rng point in
        let oracle_at_crash, racing = crash.oracle in
        let label = Fmt.str "round-%d" round in
        let rolled_back1, recovery_state =
          verify_image engine ~label ~oracle:oracle_at_crash ~in_flight:racing
            ~recrash:rng crash.image
        in
        (* Re-crash *during* that recovery and recover again: the nested
           image must satisfy the exact same oracle. *)
        let digest2, rolled_back2 =
          match recovery_state with
          | None -> (None, None)
          | Some state ->
            let nested = Soak.materialize rng state in
            let rb, _ =
              verify_image engine ~label:(label ^ "-recrash")
                ~oracle:oracle_at_crash ~in_flight:racing nested
            in
            (Some (Device.image_digest nested), Some rb)
        in
        round_outcomes :=
          {
            r_ops_ok = !ops_ok - ok0;
            r_ops_failed = !ops_failed - failed0;
            r_capture_fence = crash.fence;
            r_digest1 = Device.image_digest crash.image;
            r_rolled_back1 = rolled_back1;
            r_digest2 = digest2;
            r_rolled_back2 = rolled_back2;
          }
          :: !round_outcomes;
        (* A metadata media fault may have degraded the (unsharded) mount
           read-only mid-round — the whole-mount rung of the degradation
           ladder. That is a legal outcome, not the end of the soak: run
           one online repair pass (journal re-replay, epoch heal, scrub,
           fsck-verify, re-admit) and carry on read-write. Unhealable
           damage leaves the mount degraded; later mutations keep
           counting as failed ops. *)
        if Pmfs.read_only fs then begin
          let healed, _failed = Repair.run_once fs in
          mount_repairs := !mount_repairs + healed
        end
      done;
      (* The live mount must end the run leak-free: every aborted
         operation returned its blocks, inodes, and journal slots. *)
      let freport = Fsck.check_pmfs fs in
      let live_violations =
        (* Poisoned lines from the media-fault model are tolerated on the
           live mount (fault_soak owns the degradation ladder); leaks and
           structural damage are not. *)
        List.filter
          (fun v -> not (String.length v >= 6 && String.sub v 0 6 = "media:"))
          freport.Fsck.violations
      in
      if live_violations <> [] then
        fail "live mount fails fsck: %s" (String.concat "; " live_violations);
      {
        o_rounds = List.rev !round_outcomes;
        o_injected =
          List.map
            (fun k -> (Faultops.kind_name k, Faultops.injected fops k))
            Faultops.kinds;
        o_mount_repairs = !mount_repairs;
        o_live_leaks = (freport.Fsck.leaked_blocks, freport.Fsck.leaked_inodes);
        o_live_violations = List.length live_violations;
      })

let () =
  let o1 = run_soak () in
  List.iteri
    (fun i r ->
      let at =
        match r.r_capture_fence with
        | Some f -> Fmt.str "fence %d" f
        | None -> "round end"
      in
      let recrash =
        match r.r_rolled_back2 with
        | Some rb -> Fmt.str "recrash verified (%d rolled back)" rb
        | None -> "no recrash state"
      in
      Fmt.pr "round %d: %d ok / %d failed ops, crash at %s (%d rolled back), %s@."
        (i + 1) r.r_ops_ok r.r_ops_failed at r.r_rolled_back1 recrash)
    o1.o_rounds;
  Fmt.pr "injected: %a@."
    Fmt.(list ~sep:comma (pair ~sep:(any "=") string int))
    o1.o_injected;
  if o1.o_mount_repairs > 0 then
    Fmt.pr "mount degraded and repaired online %d time(s)@." o1.o_mount_repairs;
  let lb, li = o1.o_live_leaks in
  if lb > 0 || li > 0 then fail "live mount leaks: %d blocks, %d inodes" lb li;
  (* Non-vacuity: every fault kind fired, at least one recovery really
     rolled a transaction back, and at least one nested re-crash image was
     verified. *)
  List.iter
    (fun (k, n) -> if n = 0 then fail "fault kind %s never injected" k)
    o1.o_injected;
  if not (List.exists (fun r -> r.r_rolled_back1 > 0) o1.o_rounds) then
    fail "no recovery rolled back a transaction (crashes all landed idle)";
  if not (List.exists (fun r -> r.r_digest2 <> None) o1.o_rounds) then
    fail "no crash-during-recovery image was exercised";
  (* Bit-for-bit reproducibility, images included. *)
  Soak.deterministic soak "torture soak" o1 (run_soak ());
  Soak.verdict soak
