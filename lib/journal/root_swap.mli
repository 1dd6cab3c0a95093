(** Two-slot checksummed root descriptor with newest-valid-wins load.

    The CoW substrate commits by publishing a fresh root descriptor: a
    64-byte (one cacheline) record carrying a monotonically increasing
    sequence number, a fixed set of root pointers, and a CRC-32C. Two
    slots alternate — commit [seq] writes slot [seq land 1] — so a torn
    or poisoned store can only damage the slot being written, never the
    previously committed root. {!load} picks the valid slot with the
    highest sequence number and repairs the loser (stale or corrupt)
    from the winner through the recorder-visible reliable-store path, so
    crash enumeration covers a re-crash mid-repair. *)

module Device = Hinfs_nvmm.Device
module Stats = Hinfs_stats.Stats

type desc = {
  seq : int64;  (** commit sequence; strictly increasing across commits *)
  ptrs : int64 array;  (** exactly {!n_ptrs} root pointers / scalars *)
}

val write_initial : Device.t -> addr:int -> desc -> unit
(** mkfs-time: store the descriptor into both slots through the untimed
    reliable path and fence. *)

val commit : Device.t -> cat:Stats.category -> addr:int -> desc -> unit
(** Timed publication: cached store of the encoded descriptor into slot
    [seq land 1], clflush, mfence. The caller must have fenced the tree
    payload the descriptor points at beforehand. *)

val load : Device.t -> addr:int -> (desc, [ `Absent | `Corrupt ]) result
(** Untimed newest-valid-wins read of both slots (poison-aware: a slot
    whose cacheline is poisoned is invalid). [`Absent] when neither slot
    carries the magic — no root-swap region was ever formatted here;
    [`Corrupt] when at least one slot carries the magic but none
    validates. On success the losing slot, if stale or invalid, is
    rewritten from the winner ({!Device.poke_flushed} +
    {!Device.fence_untimed}) — idempotent mount-time repair. *)
