(** OS page cache (buffer cache) over a block device.

    Pages are keyed by device block number. Reads fetch through the block
    layer into a page, then copy to the caller (the double-copy of the
    paper's Fig. 3a); writes copy in and are written back later by fsync,
    eviction pressure, or the pdflush-like daemon. *)

type t
type page

val create : Hinfs_blockdev.Blockdev.t -> capacity_pages:int -> t
(** pdflush-like policy: the flusher runs every 5 s of virtual time, is
    woken early once more than 20% of the pages are dirty, and cleans down
    to 10%. *)

val cached_pages : t -> int
val dirty_pages : t -> int
val misses : t -> int
val foreground_writebacks : t -> int

val read :
  t ->
  cat:Hinfs_stats.Stats.category ->
  block:int ->
  off:int ->
  len:int ->
  into:Bytes.t ->
  into_off:int ->
  unit
(** Copy out of the cache (fetching the block on a miss). *)

val write :
  t ->
  cat:Hinfs_stats.Stats.category ->
  block:int ->
  off:int ->
  src:Bytes.t ->
  src_off:int ->
  len:int ->
  unit
(** Copy into the cache and mark the page dirty. Partial writes to uncached
    blocks fetch the block first (fetch-before-write); full-block writes
    skip the fetch. *)

val modify :
  t -> cat:Hinfs_stats.Stats.category -> block:int -> (Bytes.t -> 'a) -> 'a
(** In-place read-modify-write of a block (metadata update); [f] must not
    yield. Marks the page dirty. *)

val with_page :
  t -> cat:Hinfs_stats.Stats.category -> block:int -> (Bytes.t -> 'a) -> 'a
(** Read-only access to a block's cached bytes; [f] must not yield. *)

val zero_block : t -> cat:Hinfs_stats.Stats.category -> block:int -> unit
(** Install an all-zero page for a freshly allocated block (no fetch). *)

val find : t -> int -> page option
val pin : page -> unit
val unpin : page -> unit

val flush_block :
  ?background:bool -> t -> cat:Hinfs_stats.Stats.category -> int -> unit

val flush_blocks :
  ?background:bool -> t -> cat:Hinfs_stats.Stats.category -> int list -> unit

val flush_all : ?background:bool -> t -> cat:Hinfs_stats.Stats.category -> unit

val invalidate : t -> int -> unit
(** Drop a block from the cache without writeback (file deleted). *)

val start_flusher : t -> unit
(** Spawn the pdflush-like background writeback daemon (call from within a
    simulation process). *)

val stop_flusher : t -> unit
