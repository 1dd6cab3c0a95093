(** PMFS-style cacheline-granular undo journal (paper §4.1).

    Usage protocol, per transaction:
    + {!begin_txn};
    + {!log} each metadata range about to change (before changing it);
    + update the ranges in place with cached writes;
    + {!commit} — flushes the in-place updates, persists a commit entry,
      then checkpoints (clears) the transaction's log entries.

    A crash anywhere in this protocol leaves the metadata either fully
    rolled back (no commit entry found at {!recover} time) or fully applied
    (commit entry found / entries already cleared).

    Locking requirement (standard for undo logs): a range logged by a live
    transaction must not be logged or modified by another transaction until
    the first commits or aborts. The file system guarantees this with its
    namespace and per-inode locks. *)

type t
type txn

exception Journal_full
(** No free log slots: too many concurrent uncommitted transactions for the
    configured journal size. *)

val create : Hinfs_nvmm.Device.t -> first_block:int -> blocks:int -> t

val capacity : t -> int
(** Total entry slots. *)

val free_slots : t -> int
val live_txns : t -> int
val txns_committed : t -> int
val entries_written : t -> int

val begin_txn : t -> txn

val txn_committed : txn -> bool
(** Whether {!commit} completed for this transaction — callers handling a
    commit-time exception must only {!abort} when this is [false]. *)

val log : t -> txn -> addr:int -> len:int -> unit
(** Persist the current contents of the range as undo entries. Call before
    updating the range in place. *)

val commit : t -> txn -> unit
(** Commit: persist the in-place updates and a commit entry, checkpoint
    the entries, then hand the transaction's releases back. Raises
    [Invalid_argument] on a committed transaction. *)

val abort : t -> txn -> unit
(** Roll the logged ranges back, clear the entries, then hand the
    transaction's allocations back. *)

(** {2 Allocation lifetime}

    A transaction owns the blocks and inodes allocated under it and those
    it releases. {!abort} returns the allocations to their allocators; a
    commit ({!commit}, {!commit_group}) returns the releases. Either runs
    as the last step of the call, after its checkpoint, so nothing yields
    between the hand-back and the caller. Numbers, not closures, are
    recorded. *)

type resource = Block | Inode

val set_reclaim : t -> (resource -> int -> unit) -> unit
(** The function that returns a number to its allocator (the mount's
    shard-routed free). A transaction that owns a number on a log with no
    hook raises [Invalid_argument] when it ends. *)

val allocated : txn -> resource -> int -> unit
(** [n] was allocated under the transaction: an abort frees it. *)

val released : txn -> resource -> int -> unit
(** [n] is released by the transaction: it is freed once the transaction
    commits, never before — an abort restores the pointers to it. *)

(** {2 Epoch-based cross-shard commit} *)

val commit_group : Epoch.t -> id:int -> (t * txn) list -> unit
(** Commit one transaction per touched shard atomically, under epoch [id]
    (from {!Epoch.with_barrier}): prepare each participant in order
    (persist its updates, append an epoch-commit entry that is {b not}
    yet durable), persist the epoch record ({!Epoch.commit}, the
    single-cacheline commit point), retire each, then hand back every
    participant's releases. A crash before the record covers [id] rolls
    every participant back at {!recover}; a crash after keeps them all.
    On an exception before the record lands no participant is committed:
    each stays open (possibly prepared) for the caller to {!abort}, or to
    {!commit} later. *)

val with_txn : t -> (txn -> 'a) -> 'a
(** Run [f] in a transaction; commits on return, aborts on exception. *)

val start_cleaner : t -> unit
(** Spawn the background log cleaner (PMFS's journal-cleaning kthread):
    committed transactions' entries are checkpointed off the critical
    path. Call from inside a simulation process. *)

val stop_cleaner : t -> unit
(** Stop the cleaner and checkpoint everything still queued. *)

type recovery = {
  rolled_back : int;  (** uncommitted transactions undone *)
  dropped : int;
      (** slots discarded without being trusted: poisoned cacheline or
          checksum mismatch. Non-zero means recovery may be incomplete —
          the mounting file system degrades to read-only. *)
}

val recover :
  Hinfs_nvmm.Device.t ->
  ?committed_epoch:int ->
  first_block:int ->
  blocks:int ->
  unit ->
  recovery
(** Mount-time recovery on the persistent image: rolls back uncommitted
    transactions and wipes (thereby healing) the journal region. Records
    on poisoned cachelines or failing their CRC-32C are never applied —
    they are counted in [dropped]. A transaction counts as committed if it
    has a commit entry, or an epoch-commit entry whose epoch is at most
    [committed_epoch] (default 0: no epoch is covered). Untimed, but
    visible to the persistence recorder
    ({!Hinfs_nvmm.Device.poke_flushed}) and re-crash idempotent: undo data
    is fenced before the wipe, and the wipe clears data entries strictly
    before (epoch-)commit entries, so a crash at any recovery fence and a
    second recovery land on the same final image. *)

val reset_runtime : t -> unit
(** Re-arm a live log handle after its region was recovered and wiped
    out-of-band ({!recover} run by the online repair pass while the
    mount still holds this [t]): marks every slot free and drops pending
    cleaning work (the wipe already zeroed it). Raises [Invalid_argument]
    if transactions are live — drain live transactions first. *)

val set_fault_injector : t -> (unit -> bool) option -> unit
(** Operation-level fault hook, polled once per entry-slot allocation: when
    it returns [true] the allocation raises {!Journal_full} exactly as a
    full journal would. Used by {!Hinfs_nvmm.Faultops} to force journal
    exhaustion mid-transaction. *)

val encode_entry :
  txn_id:int -> seq:int -> entry_type:int -> addr:int -> payload:Bytes.t ->
  Bytes.t
(** One 64-byte entry image with valid flag and CRC set — exposed so tests
    and crash fixtures can place (and deliberately corrupt) raw records. *)

val entry_crc_ok : Bytes.t -> bool
(** Whether a raw 64-byte entry's stored CRC matches its contents. *)

val type_commit : int

val entry_size : int

val count_valid_entries :
  Hinfs_nvmm.Device.t -> first_block:int -> blocks:int -> int
(** Number of valid journal entries on the medium in the region — zero
    right after {!recover} and after clean unmount (fsck invariant). *)
