(** The DRAM write buffer pool (paper §3.2): a fixed population of 4 KB
    DRAM blocks on a free list and a global LRW (Least Recently Written)
    list. A block's descriptor is made on its first {!alloc}, so an unused
    pool costs a few words whatever its capacity; ids are handed out in
    FIFO order (never-used ids ascending, then freed ids in the order they
    were freed).

    A block holds its data as the NVMM medium does: a table of cachelines,
    each either an immutable value it may share — the medium's own line of
    its home, fetched or written back, or a fill line of one byte value —
    or a line private to the block, written in place. Only the lines
    written since the last writeback are private, so a clean block holds
    no copy of the data its home holds. The table is shared as well while
    all of the block's lines are one fill line: the block then holds the
    device's fill table of that value ({!Hinfs_nvmm.Device.fill_table};
    a block never written holds the zero one), and it owns a table of its
    own only while its lines differ, taking it from and returning it to
    the device's spare tables. Each block carries its Cacheline Bitmaps:

    - [present]: lines holding valid data in DRAM;
    - [dirty]: lines awaiting writeback (subset of [present]);
    - [home_valid]: lines of the NVMM home block known to hold valid data
      (all set when the home pre-existed; completed at first writeback);
    - [own]: lines private to the block.

    The bitmaps and the time of the last write are 64-bit words kept
    unboxed in the block's [bits], so updating them allocates nothing:
    they are read through the accessors below and updated by the
    operations that name their rule ({!add_dirty}, {!clean_lines}), never
    stored as boxed values in the long-lived descriptor. *)

type block = {
  id : int;
  mutable lines : Bytes.t array;
      (** the block's cachelines, set only through the block-data
          functions below: a fill table, or a table the block owns, whose
          private lines ([own]) are the only ones written in place *)
  node : int Hinfs_structures.Dlist.node;
  bits : Bytes.t;
      (** the Cacheline Bitmaps and the last-write time, unboxed; set
          only through the functions below *)
  mutable ino : int;
  mutable fblock : int;
  mutable home : int;  (** NVMM home block number *)
  mutable pinned : int;  (** foreground use / in-flight writeback *)
  mutable in_use : bool;
  mutable io : int;
      (** device calls in flight on [lines], which keep it owned; set only
          through the functions below *)
}

(** {1 Cacheline Bitmaps} *)

val present : block -> Clbitmap.t
val dirty : block -> Clbitmap.t
val home_valid : block -> Clbitmap.t
val own : block -> Clbitmap.t

val last_written : block -> int64
(** Virtual time of the block's last write ({!alloc}, {!touch_written}). *)

val is_dirty : block -> bool
val clear_dirty : block -> unit
val set_home_valid : block -> Clbitmap.t -> unit

val add_present : block -> Clbitmap.t -> unit
(** The lines hold valid data in DRAM. *)

val add_dirty : block -> Clbitmap.t -> bool
(** The lines were written: they are dirty and present. [true] iff the
    block was clean and is dirty now. *)

val clean_lines : block -> Clbitmap.t -> bool
(** The lines were written back: they are clean, and valid at home.
    [true] iff the block was dirty and is clean now. *)

(** {1 The pool} *)

type t

val create : Hinfs_nvmm.Device.t -> capacity:int -> t
(** A pool of [capacity] blocks of the device's block size, whose homes
    are on the device. *)

val capacity : t -> int
val free_count : t -> int
val used_count : t -> int
val free_fraction : t -> float
val block : t -> int -> block
(** @raise Invalid_argument for an id {!alloc} never handed out. *)

val alloc : t -> ino:int -> fblock:int -> home:int -> now:int64 -> block option
(** Take a free block and bind it; [None] when the pool is exhausted (the
    caller stalls on the writeback daemons). *)

val free : t -> block -> unit
(** Drops the block's lines and table: it holds the zero fill table.
    @raise Invalid_argument if the block is pinned or not in use. *)

val touch_written : t -> block -> now:int64 -> unit
(** Record a write: moves the block to the MRW end. *)

val pick_victim : t -> block option
(** Victim selection: the least recently written unpinned block. *)

val lrw_ids : t -> int list

val private_lines : t -> int
(** Lines of all blocks that are private to their block. *)

(** {1 Block data}

    [dev] is the device of the blocks' homes; [addr] a line-aligned byte
    address on it, of the line for [first]. *)

val store :
  Hinfs_nvmm.Device.t ->
  block ->
  off:int ->
  src:Bytes.t ->
  src_off:int ->
  len:int ->
  unit
(** Copy [len] bytes of [src] into the block from byte [off] (untimed: the
    caller charges the copy). A whole block or line of one byte value
    becomes that value's fill line; any other line written is private. *)

val load : block -> off:int -> len:int -> into:Bytes.t -> into_off:int -> unit
(** Copy [len] bytes of the block from byte [off] into [into] (untimed). *)

val fetch :
  Hinfs_nvmm.Device.t ->
  cat:Hinfs_stats.Stats.category ->
  block ->
  addr:int ->
  first:int ->
  count:int ->
  unit
(** Lines [first, first+count) take the device's lines from [addr] by
    value ({!Hinfs_nvmm.Device.read_lines}). *)

val fill_zeros : Hinfs_nvmm.Device.t -> block -> first:int -> count:int -> unit
(** Lines [first, first+count) become the zero fill line (untimed). *)

val write_back :
  background:bool ->
  Hinfs_nvmm.Device.t ->
  cat:Hinfs_stats.Stats.category ->
  block ->
  addr:int ->
  first:int ->
  count:int ->
  unit
(** Store lines [first, first+count) at [addr] by value
    ({!Hinfs_nvmm.Device.write_nt_lines}): the lines are the medium's
    afterwards, and no longer private. *)
