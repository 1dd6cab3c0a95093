(** NVMMBD: RAM-disk-like block device over the NVMM device model (the
    paper's modified brd driver). Every request pays the generic block layer
    overhead; transfers are whole blocks. A durability tier (lib/nvcache)
    can be interposed to absorb writes before they become block requests.

    Request counts live in the device's {!Hinfs_stats.Stats}:
    [block_read_requests], [block_write_requests] and
    [block_absorbed_writes] (writes swallowed by the attached tier instead
    of becoming requests). *)

type t

val create : Hinfs_nvmm.Device.t -> t
val device : t -> Hinfs_nvmm.Device.t
val block_size : t -> int

(** {1 Tier interposition}

    The hook record a write-cache tier implements. [tier_write] runs before
    the block request is issued; returning [true] means the write is
    durable in the tier under the same completion contract as
    {!write_block} (ordered on media when the call returns) and the block
    layer is bypassed. [tier_read] lets the tier serve blocks it still
    holds (read-your-writes); [tier_peek] is its untimed counterpart for
    {!peek_block}. *)
type tier = {
  tier_name : string;
  tier_write :
    background:bool ->
    cat:Hinfs_stats.Stats.category ->
    block:int ->
    src:Bytes.t ->
    off:int ->
    dirty:(int * int) option ->
    bool;
  tier_read :
    cat:Hinfs_stats.Stats.category ->
    block:int ->
    into:Bytes.t ->
    off:int ->
    bool;
  tier_peek : block:int -> Bytes.t option;
}

val attach_tier : t -> tier option -> unit
val tier_name : t -> string option

(** {1 Requests} *)

val read_block :
  t -> cat:Hinfs_stats.Stats.category -> int -> into:Bytes.t -> off:int -> unit

val write_block :
  ?background:bool ->
  ?dirty:int * int ->
  t ->
  cat:Hinfs_stats.Stats.category ->
  int ->
  src:Bytes.t ->
  off:int ->
  unit
(** [dirty] is the block-relative [(off, len)] byte run actually modified
    since the block was last clean, when the writer tracked one; a logging
    tier uses it to absorb sub-block records instead of whole blocks. The
    full block in [src] is authoritative either way. *)

val write_range :
  ?background:bool ->
  t ->
  cat:Hinfs_stats.Stats.category ->
  addr:int ->
  src:Bytes.t ->
  off:int ->
  len:int ->
  unit
(** One block-layer request transferring [len] bytes at device byte address
    [addr], below the tier interception point — the tier's destage path.
    Pays the per-request overhead but does not fence; the caller batches
    its own ordering points. *)

val peek_block : t -> int -> Bytes.t
(** Untimed coherent read (tests, mkfs); consults the attached tier. *)

val poke_block : t -> int -> src:Bytes.t -> off:int -> unit
(** Untimed raw write (tests, mkfs). *)
