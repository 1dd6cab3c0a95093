(** DRAM-resident block allocator over a device region (PMFS keeps its free
    lists volatile and rebuilds them at mount; so do we). *)

(** Where {!alloc} looks first. A run with no frees allocates the same
    blocks under both.
    - [Lowest_free]: always the lowest free block, as PMFS's
      pmfs_new_block / pmfs_new_inode do; freed blocks are reused at once,
      so the medium holds little more than the live data. PMFS uses it.
    - [Rolling]: next-fit from a cursor that only moves forward and wraps
      at the end of the region; a commit's fresh blocks stay clustered,
      touching few refcount pages. Cowfs uses it. *)
type policy = Lowest_free | Rolling

type t

val create : policy:policy -> first_block:int -> count:int -> t
val free_blocks : t -> int
val used_blocks : t -> int
val contains : t -> int -> bool
val is_allocated : t -> int -> bool

val alloc : t -> int option
(** Allocate one block; returns its absolute block number. *)

val free : t -> int -> unit
(** @raise Invalid_argument on double free or out-of-region block. *)

val mark_allocated : t -> int -> unit
(** Used when rebuilding allocation state during recovery. *)

val set_fault_injector : t -> (unit -> bool) option -> unit
(** Operation-level fault hook, polled once per {!alloc}: when it returns
    [true] the allocation fails ([None]) exactly as exhaustion would. Used
    by {!Faultops} to force ENOSPC / out-of-inodes mid-transaction. *)

val reset : t -> unit
