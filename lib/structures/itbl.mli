(** Hash table from non-negative ints to values, by open addressing.

    Two flat arrays (keys, values) with linear probing and backward-shift
    deletion: adding or removing a key allocates nothing once the table
    has grown to its working size, so a long-lived table updated on a hot
    path leaves no garbage for the collector to promote. The capacity
    doubles at half load and never shrinks. Iteration order is the slot
    order, a function of the keys and of the table's history; callers
    that reach an output must sort. *)

type 'a t

val create : dummy:'a -> int -> 'a t
(** [create ~dummy n]: room for [n] keys before the first growth.
    [dummy] fills the empty value slots and is what {!get} returns for an
    absent key; it is never a bound value. *)

val length : 'a t -> int
val mem : 'a t -> int -> bool

val get : 'a t -> int -> 'a
(** The value bound to the key, or the table's [dummy] when there is none
    (compare with [==]). *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any earlier binding.
    @raise Invalid_argument for a negative key. *)

val remove : 'a t -> int -> unit
(** Unbind the key; nothing when it is absent. *)

val clear : 'a t -> unit
(** Unbind every key, keeping the capacity. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** The table must not change during the walk. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
