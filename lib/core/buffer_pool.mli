(** The DRAM write buffer pool (paper §3.2): a fixed population of 4 KB
    DRAM blocks on a free list and a global LRW (Least Recently Written)
    list. A block's descriptor is made on its first {!alloc}, so an unused
    pool costs a few words whatever its capacity; ids are handed out in
    FIFO order (never-used ids ascending, then freed ids in the order they
    were freed). Each block carries its Cacheline Bitmaps:

    - [present]: lines holding valid data in DRAM;
    - [dirty]: lines awaiting writeback (subset of [present]);
    - [home_valid]: lines of the NVMM home block known to hold valid data
      (all set when the home pre-existed; completed at first writeback). *)

type block = {
  id : int;
  mutable data : Bytes.t;  (** empty until the block's first {!alloc} *)
  node : int Hinfs_structures.Dlist.node;
  mutable ino : int;
  mutable fblock : int;
  mutable home : int;  (** NVMM home block number *)
  mutable present : Clbitmap.t;
  mutable dirty : Clbitmap.t;
  mutable home_valid : Clbitmap.t;
  mutable last_written : int64;
  mutable pinned : int;  (** foreground use / in-flight writeback *)
  mutable in_use : bool;
}

type t

val create : capacity:int -> block_size:int -> lines_per_block:int -> t
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
(** @raise Invalid_argument if the block is pinned or not in use. *)

val touch_written : t -> block -> now:int64 -> unit
(** Record a write: moves the block to the MRW end. *)

val pick_victim : t -> block option
(** Victim selection: the least recently written unpinned block. *)

val lrw_ids : t -> int list
