(* Chaos soak: deterministic fault schedules against per-shard fault
   domains.

   A 4-shard PMFS runs one seeded worker per shard (sync writes, verified
   reads over that shard's files). A chaos schedule (lib/harness/chaos.ml)
   fires at fixed virtual times: a transient-read storm across the whole
   device, then journal corruption plus a free-block poison burst on
   exactly one victim shard. The online repair daemon must detect the
   damage, quarantine the victim, re-replay/wipe its journal, scrub, and
   re-admit it — while the containment-and-liveness oracle holds:

   - containment: every healthy shard completes >= 80% of the ops it
     completes in an identically-seeded no-fault baseline cell;
   - no global flip: the mount-level domain never leaves Healthy (the
     whole-mount read-only ladder of the unsharded design must not fire);
   - bounded re-admission: the victim returns to Healthy within a bounded
     virtual time of the corruption, and serves read-write again;
   - reads never lie: any read that returns data must match the oracle —
     faults surface as EIO/EROFS or retries, never silent corruption;
   - crash legality: a crash image captured at a post-fault fence (repair
     writes go through the recorder-visible untimed path) must mount,
     pass fsck, and preserve every durable file not racing the fence.

   The chaos cell runs twice with the same seed and must reproduce bit
   for bit (ops per shard, re-admit time, final image digest).

   Wired into `dune runtest`; also runnable alone:
   dune build @chaos-soak      (SOAK_SEED=n to reseed) *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Fault = Hinfs_nvmm.Fault
module Pmfs = Hinfs_pmfs.Pmfs
module Health = Hinfs_pmfs.Health
module Layout = Hinfs_pmfs.Layout
module Errno = Hinfs_vfs.Errno
module Scrub = Hinfs_fsck.Scrub
module Repair = Hinfs_fsck.Repair
module Chaos = Hinfs_harness.Chaos
module Soak = Testkit.Soak

let soak = Soak.of_env "chaos-soak" ~default:7777L
let seed = Soak.seed soak
let fail fmt = Soak.fail soak fmt
let shards = 4
let victim = 1
let files_per_shard = 4
let config = { Config.default with Config.nvmm_size = 8 * 1024 * 1024 }

(* Virtual-time script (ns). The repair daemon patrols every 2 ms, so a
   10 ms re-admission bound is five patrol ticks of slack. *)
let window_ns = 30_000_000L
let storm_at = 4_000_000
let storm_len = 5_000_000
let corrupt_at = 12_000_000
let burst_gap = 1_000_000
let readmit_bound_ns = 10_000_000L
let capture_after = Int64.of_int (corrupt_at + 3_000_000)

(* Oracle: per shard, per file, the content of the last successful
   synchronous write. Reads that return data must match it — under
   storms, quarantine, and repair alike. *)
type cell_file = { name : string; ino : int; mutable content : Bytes.t }

type outcome = {
  o_ops : int array; (* successful ops per shard *)
  o_blocked : int; (* ops rejected EIO/EROFS *)
  o_retries : int; (* transient-read retries absorbed *)
  o_quarantines : int;
  o_readmits : int;
  o_readmit_lag : int64 option; (* corruption -> Healthy again, ns *)
  o_digest : string; (* final unmounted image *)
  o_crash_checked : bool;
}

let schedule =
  [
    { Chaos.after_ns = storm_at; action = Chaos.Transient_storm { rate = 0.02 } };
    { Chaos.after_ns = storm_len; action = Chaos.Storm_end };
    {
      Chaos.after_ns = corrupt_at - storm_at - storm_len;
      action = Chaos.Corrupt_journal { shard = victim; lines = 6 };
    };
    {
      Chaos.after_ns = burst_gap;
      action = Chaos.Poison_burst { shard = victim; lines = 4 };
    };
  ]

(* Mount a crash image: fsck-clean, and every durable file whose key is
   not racing the fence must be present with the right bytes. *)
let verify_crash_image engine ~oracle ~racing image =
  let fs, _, _ = Soak.mount_pmfs soak engine config image in
  Array.iteri
    (fun s (dir, fls) ->
      Array.iteri
        (fun i (name, content) ->
          if not (List.mem (s, i) racing) then
            match Pmfs.lookup fs ~dir name with
            | None -> fail "crash image lost durable file s%d/%s" s name
            | Some ino ->
              let len = Bytes.length content in
              let buf = Bytes.create len in
              let n = Pmfs.read fs ~ino ~off:0 ~len ~into:buf ~into_off:0 in
              if
                n <> len
                || Pmfs.inode_size fs ino <> len
                || not (Bytes.equal buf content)
              then fail "crash image torn durable file s%d/%s" s name)
        fls)
    oracle;
  Pmfs.unmount fs

(* One cell: the seeded workload, with or without the chaos schedule +
   repair daemon. Baseline (chaos=false) measures per-shard throughput
   with no fault model attached. *)
let run_cell ~chaos () =
  Soak.run soak (fun engine ->
      let stats = Stats.create () in
      let d = Device.create engine stats config in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 ~shards () in
      (* Backoff > 0 so the retry path charges virtual time (satellite:
         retry/backoff visible under the storm). *)
      Pmfs.set_retry_policy fs
        { Fault.max_retries = 4; backoff_ns = 2_000; backoff_multiplier = 2 };
      if chaos then Device.set_fault_model d (Some (Fault.create ~seed ()));
      let health = Pmfs.health fs in
      let corrupted_at = ref None and readmitted_at = ref None in
      let global_flip = ref false in
      Health.set_listener health (fun domain _prev next ->
          match (domain, next) with
          | Health.Mount, s when s <> Health.Healthy -> global_flip := true
          | Health.Shard s, Health.Healthy when s = victim ->
            readmitted_at := Some (Engine.now engine)
          | _ -> ());
      (* One directory per shard (inode allocation is round-robin, but
         derive the owner rather than assume it). *)
      let dirs_by_shard = Array.make shards None in
      let made = ref 0 in
      let di = ref 0 in
      while !made < shards && !di < 8 * shards do
        let ino = Pmfs.mkdir fs ~dir:Layout.root_ino (Fmt.str "c%d" !di) in
        let s = Pmfs.shard_of_ino fs ino in
        if dirs_by_shard.(s) = None then begin
          dirs_by_shard.(s) <- Some ino;
          incr made
        end;
        incr di
      done;
      let dirs = Array.map (fun d -> Option.get d) dirs_by_shard in
      (* Pre-populate every shard with durable files. *)
      let files =
        Array.mapi
          (fun s dir ->
            Array.init files_per_shard (fun i ->
                let name = Fmt.str "f%d" i in
                let ino = Pmfs.create_file fs ~dir name in
                let data = Bytes.make 1024 (Char.chr (65 + s)) in
                ignore
                  (Pmfs.write fs ~ino ~off:0 ~src:data ~src_off:0 ~len:1024
                     ~sync:true);
                { name; ino; content = data }))
          dirs
      in
      let ops = Array.make shards 0 in
      let blocked = ref 0 in
      let in_flight = Array.make shards None in
      (* Crash capture: arm the recorder and take one crash state at the
         first pending-choice fence after the fault window opens — repair
         writes are recorder-visible, so the image is post-fault state. *)
      let captured = ref None in
      if chaos then begin
        Device.enable_recording d;
        Device.set_on_fence d (fun () ->
            if
              !captured = None
              && Int64.compare (Engine.now engine) capture_after >= 0
              && Device.pending_choice_lines d > 0
            then begin
              let osnap =
                Array.mapi
                  (fun s fls ->
                    ( dirs.(s),
                      Array.map
                        (fun f -> (f.name, Bytes.copy f.content))
                        fls ))
                  files
              in
              let racing =
                Array.to_list in_flight
                |> List.concat_map (function
                     | None -> []
                     | Some k -> [ k ])
              in
              captured :=
                Some
                  ( Device.capture_crash_state ~label:"chaos-fence" d,
                    osnap,
                    racing )
            end)
      end;
      let deadline = window_ns in
      let worker s =
        let rng = Rng.create ~seed:(Int64.add seed (Int64.of_int (s + 1))) in
        while Int64.compare (Engine.now engine) deadline < 0 do
          if Pmfs.read_only fs then global_flip := true;
          let i = Rng.int rng files_per_shard in
          let f = files.(s).(i) in
          (try
             match Rng.int rng 8 with
             | 0 | 1 | 2 ->
               let len = 512 + Rng.int rng 2048 in
               let data =
                 Bytes.init len (fun _ -> Char.chr (Rng.int rng 256))
               in
               in_flight.(s) <- Some (s, i);
               Pmfs.truncate fs ~ino:f.ino ~size:0;
               ignore
                 (Pmfs.write fs ~ino:f.ino ~off:0 ~src:data ~src_off:0 ~len
                    ~sync:true);
               f.content <- data;
               ops.(s) <- ops.(s) + 1
             | 3 ->
               in_flight.(s) <- Some (s, i);
               Pmfs.fsync fs ~ino:f.ino;
               ops.(s) <- ops.(s) + 1
             | _ ->
               let len = Bytes.length f.content in
               let buf = Bytes.create len in
               let n = Pmfs.read fs ~ino:f.ino ~off:0 ~len ~into:buf ~into_off:0 in
               if n <> len || not (Bytes.equal buf f.content) then
                 fail "SILENT CORRUPTION: shard %d file %s read back wrong" s
                   f.name;
               ops.(s) <- ops.(s) + 1
           with Errno.Fs_error ((Errno.EIO | Errno.EROFS), _) -> incr blocked);
          in_flight.(s) <- None;
          Proc.delay_int (50_000 + Rng.int rng 40_000)
        done
      in
      for s = 0 to shards - 1 do
        Proc.spawn ~name:(Fmt.str "worker%d" s) (fun () -> worker s)
      done;
      let daemon = if chaos then Some (Repair.create fs) else None in
      (match daemon with Some dm -> Repair.start dm | None -> ());
      if chaos then
        Chaos.spawn fs
          ~on_step:(fun step ->
            match step.Chaos.action with
            | Chaos.Corrupt_journal _ ->
              corrupted_at := Some (Engine.now engine)
            | _ -> ())
          schedule;
      (* Let the window elapse, then a margin for the last patrol tick. *)
      Proc.delay_int (Int64.to_int window_ns + 5_000_000);
      (match daemon with Some dm -> Repair.stop dm | None -> ());
      if chaos then Device.disable_recording d;
      let readmit_lag =
        match (!corrupted_at, !readmitted_at) with
        | Some c, Some r -> Some (Int64.sub r c)
        | _ -> None
      in
      (* Liveness: the victim must serve read-write again, right now. *)
      if chaos then begin
        let f = files.(victim).(0) in
        let data = Bytes.make 777 'z' in
        (try
           ignore
             (Pmfs.write fs ~ino:f.ino ~off:0 ~src:data ~src_off:0 ~len:777
                ~sync:true);
           f.content <- Bytes.sub data 0 777
         with Errno.Fs_error _ ->
           fail "victim shard rejects writes after the repair window");
        Pmfs.truncate fs ~ino:f.ino ~size:777
      end;
      ignore
        (Soak.check_pmfs soak ~what:"live mount fails fsck after chaos" fs);
      (match !captured with
      | None -> ()
      | Some (state, osnap, racing) ->
        let crng = Rng.create ~seed:(Int64.add seed 99L) in
        verify_crash_image engine ~oracle:osnap ~racing
          (Soak.materialize crng state));
      Pmfs.unmount fs;
      {
        o_ops = ops;
        o_blocked = !blocked;
        o_retries = Stats.media_retries stats;
        o_quarantines = Health.quarantines health;
        o_readmits = Health.readmits health;
        o_readmit_lag = readmit_lag;
        o_digest = Device.image_digest (Device.snapshot d);
        o_crash_checked = !captured <> None;
      })

let () =
  let base = run_cell ~chaos:false () in
  let c1 = run_cell ~chaos:true () in
  Array.iteri
    (fun s n ->
      Fmt.pr "shard %d: %d ops baseline, %d ops under chaos%s@." s
        base.o_ops.(s) n
        (if s = victim then " (victim)" else ""))
    c1.o_ops;
  Fmt.pr
    "chaos: %d blocked, %d retries, %d quarantine(s), %d readmit(s), \
     readmit lag %a ns, crash image %s@."
    c1.o_blocked c1.o_retries c1.o_quarantines c1.o_readmits
    Fmt.(option ~none:(any "-") int64)
    c1.o_readmit_lag
    (if c1.o_crash_checked then "checked" else "NOT captured");
  (* Containment: healthy shards keep >= 80% of their no-fault pace. *)
  for s = 0 to shards - 1 do
    if s <> victim && c1.o_ops.(s) * 10 < base.o_ops.(s) * 8 then
      fail "containment broken: shard %d did %d ops under chaos vs %d baseline"
        s c1.o_ops.(s) base.o_ops.(s)
  done;
  (* The victim was quarantined, repaired, and re-admitted in bounded
     virtual time. *)
  if c1.o_quarantines < 1 then fail "victim was never quarantined";
  if c1.o_readmits < 1 then fail "victim was never re-admitted";
  (match c1.o_readmit_lag with
  | None -> fail "no corruption->readmit interval recorded"
  | Some lag ->
    if Int64.compare lag readmit_bound_ns > 0 then
      fail "re-admission took %Ld ns, bound is %Ld ns" lag readmit_bound_ns);
  if c1.o_retries = 0 then
    fail "transient storm fired no retries (vacuous storm)";
  if not c1.o_crash_checked then
    fail "no crash image captured in the fault window";
  if base.o_quarantines <> 0 || base.o_readmits <> 0 then
    fail "baseline cell saw health transitions without faults";
  (* Determinism: same seed, same schedule, same everything. *)
  Soak.deterministic soak "chaos cell" c1 (run_cell ~chaos:true ());
  Soak.verdict soak
