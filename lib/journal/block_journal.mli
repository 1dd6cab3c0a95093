(** JBD2-style block journal for the EXT4 baseline (ordered data mode).

    Dirty metadata blocks are registered against the running transaction;
    {!commit} flushes ordered data, writes descriptor + metadata images +
    commit block to the journal through the block layer, and checkpoints
    immediately. *)

type t

val create : Hinfs_blockdev.Blockdev.t -> first_block:int -> blocks:int -> t

val commits : t -> int
val journal_metadata : t -> block:int -> content:(unit -> Bytes.t) -> unit
(** Add a dirty metadata block to the running transaction. [content] is
    called at commit time to obtain the freshest image. *)

val add_ordered_data : t -> (unit -> unit) -> unit
(** Register a data flush that must complete before the next commit. *)

val forget : t -> block:int -> unit
(** Drop a freed block from the running transaction (jbd2 "forget"). *)

val commit : t -> unit
(** Commit the running transaction (no-op if it is empty). *)

val recover : Hinfs_blockdev.Blockdev.t -> first_block:int -> blocks:int -> bool
(** Mount-time journal replay; returns [true] if a committed transaction was
    replayed. Descriptor and commit blocks carry a CRC-32C in their last
    four bytes — a record whose checksum fails is discarded, never
    replayed. Untimed. *)

val seal_block : Bytes.t -> unit
(** Set the trailing CRC-32C of a descriptor/commit block image — exposed
    so tests can hand-craft journal records. *)
