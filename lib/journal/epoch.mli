(** The epoch record: single-cacheline commit point for cross-shard
    transactions.

    Per-shard {!Cacheline_log}s commit single-shard transactions with
    ordinary commit entries. A cross-shard operation stamps one
    transaction per shard with a shared epoch id
    ({!Cacheline_log.prepare_epoch}), then persists this record — one
    cacheline, hence atomic — making every participant durable at once.
    The record is a watermark: all epochs at or below its value are
    committed. Mount resets it (generation-local), so runtime epochs start
    at 1 and a stale record can never validate a later generation's
    entries. *)

type t

val create : Hinfs_nvmm.Device.t -> block:int -> t
(** Initialise the runtime handle and reset the on-NVMM record to "no
    epoch committed" (call at mount, after journal recovery). *)

val committed : t -> int
(** Highest epoch persisted as committed this mount. *)

val commits : t -> int
(** Number of epoch-record commits this mount (observability gauge). *)

val commit : t -> int -> unit
(** Persist the record with the given epoch as the committed watermark:
    the atomic commit point. Timed; call from inside a simulation
    process. *)

val with_barrier : t -> (int -> 'a) -> 'a
(** Run one allocate-prepare-commit section under the epoch barrier: the
    callback receives a fresh epoch id and must {!commit} it (after
    preparing every participant) before returning. The barrier keeps a
    later epoch's record commit from covering an earlier epoch that is
    still mid-prepare. *)

val heal : t -> unit
(** Untimed re-persist of the current watermark — the scrubber's poison
    repair for the record's line (keeps the runtime committed epoch,
    unlike {!reset}). *)

val read_committed : Hinfs_nvmm.Device.t -> block:int -> int
(** Untimed peek for mount-time recovery: the committed-epoch watermark
    the crash left behind. A poisoned, torn, or absent record reads as 0
    (nothing committed — the conservative direction). *)

val reset : Hinfs_nvmm.Device.t -> block:int -> unit
(** Reset the record to "no epoch committed". Recorder-visible and fenced
    (crash enumeration covers a re-crash mid-reset); heals poison on the
    record's line. *)
