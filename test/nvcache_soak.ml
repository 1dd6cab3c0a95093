(* Nvcache soak: an oracle-checked op mix over the nvcache tier (both the
   logging and the paging design), with mid-round crashes and a
   replay-under-fault leg. The acceptance bar:

   - zero silent corruption: every read matches the DRAM oracle byte for
     byte, before and after destage;
   - crash durability: a crash image taken after any fsync recovers with
     every fsync'd file intact and zero records dropped;
   - replay under media faults: with poison struck into the cache area of
     the crash image, replay never crashes and never applies wrong data —
     a clean replay (nothing dropped) still yields byte-exact content;
   - fully deterministic: a second run with the same seed reproduces the
     same counters bit for bit.

   SOAK_SEED=<int64> reseeds the run (default 7). Wired into `dune
   runtest` through the nvcache-soak alias; also runnable directly:
   dune exec test/nvcache_soak.exe *)

module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Fault = Hinfs_nvmm.Fault
module Extfs = Hinfs_extfs.Extfs
module Nvcache = Hinfs_nvcache.Nvcache
module Types = Hinfs_vfs.Types
module Vfs = Hinfs_vfs.Vfs
module Crashmc = Hinfs_crashmc.Crashmc
module Soak = Testkit.Soak

let soak = Soak.of_env "nvcache-soak" ~default:7L
let seed = Soak.seed soak
let fail fmt = Soak.fail soak fmt
let rounds = 3
let ops_per_round = 60
let max_files = 10
let max_len = 16 * 1024

let config = { Config.default with Config.nvmm_size = 8 * 1024 * 1024 }

(* Counters gathered per design, compared across runs for determinism. *)
type outcome = {
  o_appends : int;
  o_absorbed : int;
  o_destages : int;
  o_stalls : int;
  o_replayed : int;
  o_fault_dropped : int;
}

(* Every fsync'd file in the oracle, whole, read through [h]. *)
let verify_oracle h oracle ~where =
  Soak.check_files soak ~label:where h
    (Hashtbl.fold
       (fun path content acc ->
         (path, Crashmc.Exactly (Content (Bytes.to_string content))) :: acc)
       oracle [])

(* One live round: op mix over a fresh stack, a crash snapshot mid-round,
   and the oracle as it stood at the snapshot. *)
let live_round ~design ~round =
  Soak.run soak (fun engine ->
      let stats = Stats.create () in
      let device = Device.create engine stats config in
      let st =
        Nvcache.mkfs_and_mount device ~design ~mode:Extfs.Ext4
          ~journal_blocks:16 ~sync_mount:true ~cache_pages:64 ()
      in
      let h = Nvcache.handle st in
      let cache = Nvcache.cache st in
      let rng =
        Rng.create ~seed:(Int64.add seed (Int64.of_int (round * 977)))
      in
      let oracle : (string, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
      let payload len = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
      let do_write () =
        let path = Fmt.str "/f%d" (Rng.int rng max_files) in
        let len = 1 + Rng.int rng max_len in
        let data = payload len in
        let fd =
          h.Vfs.open_ path { Types.creat with Types.truncate = true }
        in
        ignore (h.Vfs.write fd data len);
        h.Vfs.fsync fd;
        h.Vfs.close fd;
        Hashtbl.replace oracle path data
      in
      let snap = ref None in
      let snap_oracle = ref None in
      let snap_at = ops_per_round / 2 in
      for op = 0 to ops_per_round - 1 do
        (match Rng.int rng 5 with
        | 0 | 1 | 2 -> do_write ()
        | 3 -> if Hashtbl.length oracle = 0 then do_write () else ()
        | _ -> Nvcache.destage_all cache);
        verify_oracle h oracle ~where:(Fmt.str "live %s" (Nvcache.design_name design));
        if op = snap_at then begin
          (* Crash point: everything in the oracle has been fsync'd. *)
          snap := Some (Device.snapshot device);
          snap_oracle := Some (Hashtbl.copy oracle)
        end
      done;
      Nvcache.unmount st;
      let snap = Option.get !snap and snap_oracle = Option.get !snap_oracle in
      ( snap,
        snap_oracle,
        ( Nvcache.appends cache,
          Nvcache.absorbed_bytes cache,
          Nvcache.destages cache,
          Nvcache.stalls cache ) ))

(* Recover a crash image and hold it to the oracle. *)
let crash_leg ~design snap oracle =
  Soak.run soak (fun engine ->
      let stats = Stats.create () in
      let device = Device.of_snapshot engine stats config snap in
      let st =
        Nvcache.mount device ~mode:Extfs.Ext4 ~sync_mount:true ~cache_pages:64
          ()
      in
      let replayed =
        match Nvcache.last_recovery st with
        | None ->
          fail "%s: mount ran no replay" (Nvcache.design_name design);
          0
        | Some r ->
          if r.Nvcache.rec_dropped > 0 then
            fail "%s: clean crash image dropped %d record(s)"
              (Nvcache.design_name design) r.Nvcache.rec_dropped;
          r.Nvcache.rec_replayed
      in
      verify_oracle (Nvcache.handle st) oracle
        ~where:(Fmt.str "replay %s" (Nvcache.design_name design));
      Nvcache.unmount st;
      replayed)

(* Same crash image with poison struck into the cache area: replay must
   survive, and must never apply wrong data. A replay that dropped nothing
   still owes the oracle byte-exact content. *)
let fault_leg ~design ~round snap oracle =
  Soak.run soak (fun engine ->
      let stats = Stats.create () in
      let device = Device.of_snapshot engine stats config snap in
      let fault =
        Fault.create ~seed:(Int64.add seed (Int64.of_int (round + 13))) ()
      in
      Device.set_fault_model device (Some fault);
      let cache_bytes = Nvcache.default_cache_bytes config in
      let area_start = Config.(config.nvmm_size) - cache_bytes in
      let rng =
        Rng.create ~seed:(Int64.add seed (Int64.of_int ((round * 131) + 17)))
      in
      for _ = 1 to 3 do
        let line = (area_start / 64) + Rng.int rng (cache_bytes / 64) in
        Fault.poison_line fault line
      done;
      match Nvcache.recover device () with
      | exception e ->
        fail "%s: replay under poison raised %s" (Nvcache.design_name design)
          (Printexc.to_string e);
        0
      | r ->
        if r.Nvcache.rec_dropped = 0 then begin
          (* Poison missed every live record: full durability holds. The
             poisoned lines may still sit under backend blocks, so clear
             them before reading files back. *)
          Device.set_fault_model device None;
          let st =
            Nvcache.mount device ~mode:Extfs.Ext4 ~sync_mount:true
              ~cache_pages:64 ()
          in
          verify_oracle (Nvcache.handle st) oracle
            ~where:(Fmt.str "fault-replay %s" (Nvcache.design_name design));
          Nvcache.unmount st
        end;
        r.Nvcache.rec_dropped)

let run_design design =
  let appends = ref 0
  and absorbed = ref 0
  and destages = ref 0
  and stalls = ref 0
  and replayed = ref 0
  and dropped = ref 0 in
  for round = 1 to rounds do
    let snap, oracle, (a, ab, d, s) = live_round ~design ~round in
    appends := !appends + a;
    absorbed := !absorbed + ab;
    destages := !destages + d;
    stalls := !stalls + s;
    replayed := !replayed + crash_leg ~design snap oracle;
    dropped := !dropped + fault_leg ~design ~round snap oracle
  done;
  {
    o_appends = !appends;
    o_absorbed = !absorbed;
    o_destages = !destages;
    o_stalls = !stalls;
    o_replayed = !replayed;
    o_fault_dropped = !dropped;
  }

let run_all () = List.map (fun d -> (d, run_design d)) [ Nvcache.Logging; Nvcache.Paging ]

let () =
  let first = run_all () in
  Soak.deterministic soak "nvcache soak" first (run_all ());
  List.iter
    (fun (design, o) ->
      if o.o_appends = 0 then
        fail "%s: soak absorbed nothing" (Nvcache.design_name design);
      if o.o_replayed = 0 then
        fail "%s: no crash image had anything to replay"
          (Nvcache.design_name design);
      Fmt.pr "nvcache-soak %s: %d appends, %d bytes absorbed, %d destages, %d stalls, %d replayed, %d dropped under poison@."
        (Nvcache.design_name design) o.o_appends o.o_absorbed o.o_destages
        o.o_stalls o.o_replayed o.o_fault_dropped)
    first;
  Soak.verdict soak
