(** Cacheline Bitmap (paper §3.2.1): one bit per cacheline of a buffer
    block, packed into an [int64] (64 lines x 64 B = 4 KB).

    Values are immutable words for computing with. A long-lived holder
    does not keep one in a mutable field, where each update would store a
    fresh box into a record in the major heap: {!Buffer_pool} and
    {!Benefit} keep their bitmaps unboxed in [Bytes] and update them in
    place. *)

type t = int64

val empty : t

val full_mask : int -> t
(** [full_mask n] has the low [n] bits set (clamped to 64). *)

val mem : t -> int -> bool

val add_range : t -> first:int -> last:int -> t
val inter : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is the bits of [a] not in [b]. *)

val is_empty : t -> bool
val equal : t -> t -> bool

val count : t -> int
(** Population count. *)

val of_byte_range : cacheline_size:int -> off:int -> len:int -> t
(** Cachelines covered by the byte range of a block. *)

val boundary_partials : cacheline_size:int -> off:int -> len:int -> t
(** Cachelines only partially covered at the range's boundaries — the
    lines CLFW must fetch before an unaligned write. *)

val iter_runs : t -> nlines:int -> (first:int -> count:int -> set:bool -> unit) -> unit
(** Visit maximal runs of equal membership within [0, nlines). *)

val iter_set_runs : t -> nlines:int -> (first:int -> count:int -> unit) -> unit
