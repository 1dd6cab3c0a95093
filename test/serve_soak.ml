(* Serve soak: crash-consistency for the serving layer's durability
   contract, on a 4-shard PMFS behind lib/server.

   A fleet of client fibers drives the server with an NFS-flavoured
   append discipline: each client appends fixed-size blocks to a private
   file (mixed stable/unstable), COMMITs periodically, reads back its own
   acked blocks and a zipf-less shared hot set, and churns a scratch path
   with remove/re-create. Mid-burst, a seeded fence captures a crash
   state through the persistence recorder.

   The oracle is exactly the protocol's promise: a block is DURABLE once
   its FILE_SYNC write was acknowledged, or once a later COMMIT on the
   file was acknowledged; nothing else is promised. Every materialised
   crash image must mount, pass fsck, and contain every block that was
   durable at capture time with the right bytes — unstable-acked blocks
   and in-flight requests are exempt. Two runs with the same seed must
   reproduce bit for bit.

   SOAK_SEED=<int64> reseeds the run (default 4242). Wired into `dune
   runtest` via the serve-soak alias; also runnable directly:
   dune exec test/serve_soak.exe *)

module Proc = Hinfs_sim.Proc
module Condvar = Hinfs_sim.Condvar
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Pmfs = Hinfs_pmfs.Pmfs
module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno
module Wire = Hinfs_server.Wire
module Server = Hinfs_server.Server
module Crashmc = Hinfs_crashmc.Crashmc
module Soak = Testkit.Soak

let soak = Soak.of_env "serve-soak" ~default:4242L
let seed = Soak.seed soak
let fail fmt = Soak.fail soak fmt
let shards = 4
let ndirs = 6
let nclients = 6
let nhot = 8
let rounds = 4
let ops_per_client = 24
let chunk = 1024
let config = { Config.default with Config.nvmm_size = 8 * 1024 * 1024 }

let own_path ci = Fmt.str "/d%d/own%d" (ci mod ndirs) ci
let scratch_path ci = Fmt.str "/d%d/scr%d" (ci mod ndirs) ci
let hot_path j = Fmt.str "/d%d/hot%d" (j mod ndirs) j
let block_fill ci k = Char.chr (((ci * 31) + (k * 7)) mod 256)

(* Oracle: (client, block index) -> durability state, exactly mirroring
   what the server has acknowledged. *)
type blk = Acked_unstable | Durable

let copy_oracle o =
  let c = Hashtbl.create (Hashtbl.length o) in
  Hashtbl.iter (fun k v -> Hashtbl.replace c k v) o;
  c

(* Mount a crash image and check the durability contract: each client's
   file holds every block that was durable at capture time. *)
let verify_image engine ~label oracle image =
  let fs, _, _ = Soak.mount_pmfs ~label soak engine config image in
  let promised = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (ci, k) state ->
      match state with
      | Acked_unstable -> () (* nothing promised until COMMIT *)
      | Durable ->
        Hashtbl.replace promised ci
          ((k * chunk, String.make chunk (block_fill ci k))
          :: Option.value ~default:[] (Hashtbl.find_opt promised ci)))
    oracle;
  Soak.check_files soak ~label (Pmfs.handle fs)
    (Hashtbl.fold
       (fun ci ranges acc -> (own_path ci, Crashmc.Exactly (Holds ranges)) :: acc)
       promised [])

type round_outcome = {
  r_ops : int;
  r_fence : int option;
  r_durable : int; (* durable blocks in the captured oracle *)
  r_digest : string;
}

let run_soak () =
  Soak.run soak (fun engine ->
      let outcomes = ref [] in
      let stats = Stats.create () in
      let d = Device.create engine stats config in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 ~shards () in
      let h = Pmfs.handle fs in
      let srv = Server.create ~workers:4 ~cache_cap:8 engine h in
      Server.start srv;
      let rng = Rng.create ~seed in
      (* fixture namespace, pre-recording: dirs, hot set, private files *)
      for i = 0 to ndirs - 1 do
        h.Vfs.mkdir (Fmt.str "/d%d" i)
      done;
      let hot_block = Bytes.make chunk 'h' in
      for j = 0 to nhot - 1 do
        let fd = h.Vfs.open_ (hot_path j) Types.creat in
        ignore (h.Vfs.write fd hot_block chunk);
        h.Vfs.fsync fd;
        h.Vfs.close fd
      done;
      let oracle : (int * int, blk) Hashtbl.t = Hashtbl.create 256 in
      let next_block = Array.make nclients 0 in
      let sids = Array.make nclients 0 in
      let fhs = Array.make nclients 0L in
      for ci = 0 to nclients - 1 do
        sids.(ci) <- Server.establish srv;
        match Server.rpc srv ~sid:sids.(ci) (Wire.Create (own_path ci)) with
        | Wire.R_handle (fh, _) -> fhs.(ci) <- fh
        | _ -> fail "setup CREATE %s failed" (own_path ci)
      done;
      (* R_expired means the lease lapsed between rounds: reconnect (the
         handle survives) and retry. *)
      let rec rpc ci req attempts =
        match Server.rpc srv ~sid:sids.(ci) req with
        | Wire.R_expired when attempts > 0 ->
          sids.(ci) <- Server.establish srv;
          rpc ci req (attempts - 1)
        | reply -> reply
      in
      let total_ops = ref 0 in
      let client_burst ci crng =
        let scratch_live = ref false in
        for _ = 1 to ops_per_client do
          incr total_ops;
          let r = Rng.float crng in
          if r < 0.45 then begin
            (* append one block, stable every third write *)
            let k = next_block.(ci) in
            next_block.(ci) <- k + 1;
            let stable = k mod 3 = 0 in
            let data = String.make chunk (block_fill ci k) in
            match rpc ci (Wire.Write (fhs.(ci), k * chunk, data, stable)) 2 with
            | Wire.R_written (n, _) ->
              if n <> chunk then fail "short write ack on %s" (own_path ci);
              Hashtbl.replace oracle (ci, k)
                (if stable then Durable else Acked_unstable)
            | Wire.R_err e ->
              fail "WRITE %s: %s" (own_path ci) (Errno.to_string e)
            | _ -> fail "unexpected WRITE reply"
          end
          else if r < 0.6 then begin
            (* COMMIT: every previously acked unstable block is now durable *)
            match rpc ci (Wire.Commit fhs.(ci)) 2 with
            | Wire.R_ok _ ->
              Hashtbl.iter
                (fun (ci', k) state ->
                  if ci' = ci && state = Acked_unstable then
                    Hashtbl.replace oracle (ci', k) Durable)
                (copy_oracle oracle)
            | Wire.R_err e ->
              fail "COMMIT %s: %s" (own_path ci) (Errno.to_string e)
            | _ -> fail "unexpected COMMIT reply"
          end
          else if r < 0.75 then begin
            (* read back one of our acked blocks: read-your-writes *)
            let k = Rng.int crng (max 1 next_block.(ci)) in
            match Hashtbl.find_opt oracle (ci, k) with
            | None -> ()
            | Some _ -> (
              match rpc ci (Wire.Read (fhs.(ci), k * chunk, chunk)) 2 with
              | Wire.R_data got ->
                if got <> String.make chunk (block_fill ci k) then
                  fail "SILENT CORRUPTION: block %d of %s reads back wrong" k
                    (own_path ci)
              | Wire.R_err e ->
                fail "READ %s: %s" (own_path ci) (Errno.to_string e)
              | _ -> fail "unexpected READ reply")
          end
          else if r < 0.9 then begin
            (* shared hot-set read through the server *)
            let j = Rng.int crng nhot in
            match rpc ci (Wire.Lookup (hot_path j)) 2 with
            | Wire.R_handle (hfh, _) -> (
              match rpc ci (Wire.Read (hfh, 0, chunk)) 2 with
              | Wire.R_data got ->
                if got <> Bytes.to_string hot_block then
                  fail "SILENT CORRUPTION: hot file %d reads back wrong" j
              | _ -> fail "hot READ failed")
            | _ -> fail "hot LOOKUP failed"
          end
          else begin
            (* namespace churn on the private scratch path (oracle-exempt) *)
            if !scratch_live then
              ignore (rpc ci (Wire.Remove (scratch_path ci)) 2)
            else ignore (rpc ci (Wire.Create (scratch_path ci)) 2);
            scratch_live := not !scratch_live
          end;
          Proc.delay_int (Rng.int_in_range crng ~lo:200 ~hi:1500)
        done
      in
      for round = 1 to rounds do
        let point =
          Soak.arm ~label:(Fmt.str "serve-round-%d" round) rng d ~fences:300
            (fun () -> copy_oracle oracle)
        in
        let ops0 = !total_ops in
        let done_cv = Condvar.create engine in
        let remaining = ref nclients in
        for ci = 0 to nclients - 1 do
          let crng =
            Rng.create
              ~seed:
                (Int64.add seed
                   (Int64.of_int ((round * 1009) + (ci * 7919))))
          in
          Proc.spawn ~name:(Fmt.str "soak-client%d" ci) (fun () ->
              client_burst ci crng;
              decr remaining;
              if !remaining = 0 then ignore (Condvar.broadcast done_cv))
        done;
        if !remaining > 0 then Condvar.wait done_cv;
        let crash = Soak.crash rng point in
        let image = crash.image and oimg = crash.oracle in
        let durable =
          Hashtbl.fold (fun _ s n -> if s = Durable then n + 1 else n) oimg 0
        in
        let label = Fmt.str "round-%d" round in
        verify_image engine ~label oimg image;
        (* recovery must be idempotent: same image, same verdict *)
        verify_image engine ~label:(label ^ "-again") oimg image;
        outcomes :=
          {
            r_ops = !total_ops - ops0;
            r_fence = crash.fence;
            r_durable = durable;
            r_digest = Device.image_digest image;
          }
          :: !outcomes
      done;
      Server.stop srv;
      (* non-vacuity: the soak must actually have crashed mid-burst with
         durable data at stake *)
      let captured_rounds =
        List.length (List.filter (fun r -> r.r_fence <> None) !outcomes)
      in
      if captured_rounds = 0 then
        fail "no round captured a mid-burst crash state (vacuous soak)";
      if not (List.exists (fun r -> r.r_durable > 0) !outcomes) then
        fail "no captured oracle held durable blocks (vacuous soak)";
      ignore (Soak.check_pmfs soak ~what:"live mount fails fsck" fs);
      List.rev !outcomes)

let () =
  let o1 = run_soak () in
  List.iteri
    (fun i r ->
      let at =
        match r.r_fence with
        | Some f -> Fmt.str "fence %d" f
        | None -> "round end"
      in
      Fmt.pr "round %d: %d served ops, crash at %s, %d durable blocks checked@."
        (i + 1) r.r_ops at r.r_durable)
    o1;
  Soak.deterministic soak "serve soak" o1 (run_soak ());
  Soak.verdict soak
