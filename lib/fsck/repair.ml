(* Online repair of degraded fault domains, in place.

   A fault domain is a shard of a sharded mount, or the whole mount when
   it is unsharded (see {!Pmfs.domain_fault}). A domain degrades at
   runtime on an uncorrectable metadata read or dropped recovery records;
   it keeps serving reads and fsync while mutations fail EROFS. One repair
   pass over a degraded domain:

   1. wait for the domain journal's live transactions to drain (bounded:
      if writers are wedged mid-transaction the pass gives up without
      counting a failure, and the next pass tries again);
   2. re-run journal recovery over the domain's journal region against
      the current epoch watermark: committed-but-uncheckpointed
      transactions are preserved by the wipe-order invariants, uncommitted
      ones are rolled back, untrusted (poisoned / CRC-failing) records
      dropped — then re-arm the live log handle over the now-empty region;
   3. heal the epoch record (re-persist the runtime watermark) and scrub
      the domain's regions — journal poison is zeroed, free slots are
      zeroed, allocated-data poison is left in place (EIO on read is data
      loss, not a structural fault, and may degrade the domain again);
   4. fsck the mount and re-admit the domain only if the image is
      structurally clean and the domain's journal region is empty.

   Every repair write goes through the untimed reliable-store path
   (poke_flushed / fence_untimed), so the persistence recorder sees it:
   crash images taken mid-repair are legal and must mount.

   A domain whose repair fails [max_attempts] times in a row is left
   degraded for an operator (offline fsck). *)

module Proc = Hinfs_sim.Proc
module Device = Hinfs_nvmm.Device
module Fault = Hinfs_nvmm.Fault
module Log = Hinfs_journal.Cacheline_log
module Epoch = Hinfs_journal.Epoch
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Fs_ctx = Hinfs_pmfs.Fs_ctx
module Errno = Hinfs_vfs.Errno

let max_attempts = 3
let drain_polls = 50
let drain_poll_ns = 100_000

let drain_live_txns log =
  let rec poll n =
    if Log.live_txns log = 0 then true
    else if n = 0 then false
    else begin
      Proc.delay_int drain_poll_ns;
      poll (n - 1)
    end
  in
  poll drain_polls

(* One pass over repair domain [s]: [Some ok] once the pass ran, [None]
   when live transactions did not drain. *)
let repair_domain fs s =
  let log = (Fs_ctx.shard (Pmfs.ctx fs) s).Fs_ctx.log in
  if not (drain_live_txns log) then None
  else begin
    let ok =
      try
        let device = Pmfs.device fs in
        let first_block, blocks = Layout.journal_region (Pmfs.geometry fs) s in
        let committed_epoch = Epoch.committed (Pmfs.epoch fs) in
        ignore (Log.recover device ~committed_epoch ~first_block ~blocks ());
        Log.reset_runtime log;
        Epoch.heal (Pmfs.epoch fs);
        let shard = if Pmfs.shard_count fs > 1 then Some s else None in
        let unrecoverable = Scrub.run ?shard fs in
        let freport = Fsck.check_pmfs fs in
        unrecoverable = []
        && Fsck.ok freport
        && freport.Fsck.shard_reports.(s).Fsck.journal_entries = 0
      with Fault.Media_error _ | Errno.Fs_error _ -> false
    in
    Pmfs.end_repair fs s ~ok;
    Some ok
  end

(* One synchronous pass over the mount: heal mount-scoped damage, then
   repair each degraded domain. Returns [(re-admitted, failed)]. Must run
   inside a simulation process. *)
let run_once fs =
  Scrub.heal_mount_scope fs;
  let readmitted = ref 0 and failed = ref 0 in
  for s = 0 to Pmfs.shard_count fs - 1 do
    if Pmfs.domain_fault fs s <> None && Pmfs.failed_repairs fs s < max_attempts
    then
      match repair_domain fs s with
      | Some true -> incr readmitted
      | Some false -> incr failed
      | None -> ()
  done;
  (!readmitted, !failed)
