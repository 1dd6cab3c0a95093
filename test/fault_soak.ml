(* Fault-soak: a filebench-style op mix over PMFS under nonzero media-fault
   rates, with a DRAM oracle shadowing every file's contents. The
   acceptance bar:

   - zero silent corruption: every successful read matches the oracle
     byte for byte; a poisoned range must surface as EIO, never as wrong
     data;
   - the degradation ladder holds: after remount + scrub, either the file
     system is clean per fsck, or it is read-only and mutations raise
     EROFS while reads are still served;
   - fully deterministic: a second run with the same seed reproduces the
     same fault placement and the same counters bit for bit.

   SOAK_SEED=<int64> reseeds the run (default 42). Wired into `dune
   runtest` through the fault-soak alias; also runnable directly:
   dune exec test/fault_soak.exe *)

module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Fault = Hinfs_nvmm.Fault
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Errno = Hinfs_vfs.Errno
module Fsck = Hinfs_fsck.Fsck
module Scrub = Hinfs_fsck.Scrub
module Soak = Testkit.Soak

let soak = Soak.of_env "fault-soak" ~default:42L
let seed = Soak.seed soak
let fail fmt = Soak.fail soak fmt
let poison_rate = 1e-3
let transient_rate = 1e-3
let ops = 600
let max_files = 24
let max_file_len = 24 * 1024

(* Counters gathered at the end of a run, compared across runs for
   determinism. *)
type outcome = {
  o_poisoned : int list;
  o_model : int * int; (* store poisons, heals *)
  o_fs : int * int * int * int * int;
  o_ops : int * int * int; (* reads ok, reads eio, writes refused *)
  o_read_only : bool;
  o_violations : int;
}

(* Soak with the observability sink installed: every span opened on an
   EIO/EROFS unwind must still close, so the accounting is checked at the
   end of the run. *)
let run_soak () =
  Soak.run soak ~obs:"faults" (fun engine ->
      let stats = Stats.create () in
      let config =
        { Config.default with Config.nvmm_size = 8 * 1024 * 1024 }
      in
      let device = Device.create engine stats config in
      let fs = Pmfs.mkfs_and_mount device ~journal_blocks:32 () in
      let fault =
        Fault.create ~poison_rate ~transient_rate ~seed ()
      in
      Device.set_fault_model device (Some fault);
      let rng = Rng.create ~seed in
      (* Oracle: file name -> (ino, contents). Byte values are drawn from
         the same RNG stream, so contents are part of the deterministic
         replay. *)
      let oracle : (string, int * Bytes.t) Hashtbl.t = Hashtbl.create 64 in
      let names () = Hashtbl.fold (fun k _ acc -> k :: acc) oracle [] in
      let pick_name () =
        match names () with
        | [] -> None
        | l ->
          let arr = Array.of_list (List.sort compare l) in
          Some arr.(Rng.int rng (Array.length arr))
      in
      let reads_ok = ref 0 and reads_eio = ref 0 and writes_refused = ref 0 in
      let payload len =
        Bytes.init len (fun _ -> Char.chr (Rng.int rng 256))
      in
      let do_create () =
        if Hashtbl.length oracle < max_files then begin
          let name = Fmt.str "f%04d" (Rng.int rng 10_000) in
          if not (Hashtbl.mem oracle name) then
            match Pmfs.create_file fs ~dir:Layout.root_ino name with
            | ino -> Hashtbl.replace oracle name (ino, Bytes.empty)
            | exception Errno.Fs_error (Errno.EROFS, _) ->
              incr writes_refused
        end
      in
      let do_write () =
        match pick_name () with
        | None -> do_create ()
        | Some name ->
          let ino, content = Hashtbl.find oracle name in
          let off = Rng.int rng (max 1 (min max_file_len (Bytes.length content + 1))) in
          let len = 1 + Rng.int rng 8192 in
          let src = payload len in
          (match
             Pmfs.write fs ~ino ~off ~src ~src_off:0 ~len ~sync:(Rng.bool rng)
           with
          | n ->
            let newlen = max (Bytes.length content) (off + n) in
            let updated = Bytes.make newlen '\000' in
            Bytes.blit content 0 updated 0 (Bytes.length content);
            Bytes.blit src 0 updated off n;
            Hashtbl.replace oracle name (ino, updated)
          | exception Errno.Fs_error (Errno.EROFS, _) -> incr writes_refused
          | exception Errno.Fs_error (Errno.ENOSPC, _) -> ())
      in
      let do_read () =
        match pick_name () with
        | None -> ()
        | Some name ->
          let ino, content = Hashtbl.find oracle name in
          let len = Bytes.length content in
          if len > 0 then begin
            let buf = Bytes.create len in
            match Pmfs.read fs ~ino ~off:0 ~len ~into:buf ~into_off:0 with
            | n ->
              if n <> len || not (Bytes.equal (Bytes.sub buf 0 n) content)
              then
                fail "SILENT CORRUPTION: %S read back wrong (%d/%d bytes)"
                  name n len
              else incr reads_ok
            | exception Errno.Fs_error (Errno.EIO, _) -> incr reads_eio
          end
      in
      let do_unlink () =
        match pick_name () with
        | None -> ()
        | Some name -> (
          match Pmfs.unlink fs ~dir:Layout.root_ino name with
          | () -> Hashtbl.remove oracle name
          | exception Errno.Fs_error (Errno.EROFS, _) -> incr writes_refused)
      in
      for _ = 1 to ops do
        match Rng.int rng 10 with
        | 0 | 1 -> do_create ()
        | 2 | 3 | 4 | 5 -> do_write ()
        | 6 | 7 | 8 -> do_read ()
        | _ -> do_unlink ()
      done;
      (* Remount (recovery + superblock checks run), scrub, fsck. *)
      Pmfs.unmount fs;
      let fs = Pmfs.mount device () in
      let _scrub_report = Scrub.run fs in
      let freport = Fsck.check_pmfs fs in
      if Pmfs.read_only fs then begin
        (* Degraded: mutations must be refused, reads must still work. *)
        (match Pmfs.create_file fs ~dir:Layout.root_ino "post-degrade" with
        | _ -> fail "degraded mount accepted a create"
        | exception Errno.Fs_error (Errno.EROFS, _) -> ());
        Hashtbl.iter
          (fun name (ino, content) ->
            let len = Bytes.length content in
            if len > 0 then
              let buf = Bytes.create len in
              match Pmfs.read fs ~ino ~off:0 ~len ~into:buf ~into_off:0 with
              | n ->
                if n <> len || not (Bytes.equal (Bytes.sub buf 0 n) content)
                then fail "SILENT CORRUPTION after degrade: %S" name
              | exception Errno.Fs_error (Errno.EIO, _) -> ())
          oracle
      end
      else if not (Fsck.ok freport) then
        fail "writable file system fails fsck: %a" Fsck.pp_report freport;
      {
        o_poisoned = Fault.poisoned_lines fault;
        o_model =
          (Fault.store_poisons fault, Fault.heals fault);
        o_fs =
          ( Stats.media_faults_transient stats,
            Stats.media_faults_poison stats,
            Stats.media_retries stats,
            Stats.scrub_repairs stats,
            Stats.crc_mismatches stats );
        o_ops = (!reads_ok, !reads_eio, !writes_refused);
        o_read_only = Pmfs.read_only fs;
        o_violations = List.length freport.Fsck.violations;
      })

let () =
  let o1 = run_soak () in
  let reads_ok, reads_eio, writes_refused = o1.o_ops in
  Fmt.pr
    "fault-soak: %d ops (%d reads ok, %d EIO, %d writes refused), %d \
     poisoned line(s), read-only=%b, %d fsck violation(s)@."
    ops reads_ok reads_eio writes_refused
    (List.length o1.o_poisoned)
    o1.o_read_only o1.o_violations;
  if reads_ok = 0 then fail "soak exercised no successful reads";
  let store_poisons, _ = o1.o_model in
  let transients, _, _, _, _ = o1.o_fs in
  if store_poisons + transients = 0 then
    fail "soak injected no faults at all (rates too low to test anything)";
  (* Bit-for-bit reproducibility. *)
  Soak.deterministic soak "soak" o1 (run_soak ());
  Soak.verdict soak
