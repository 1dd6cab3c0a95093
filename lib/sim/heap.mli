(** Binary min-heap of timestamped events.

    Entries are ordered by [(time, seq)]: events with equal virtual times pop
    in insertion (FIFO) order, which keeps the simulation deterministic. *)

type 'a entry = private {
  time : int64;
  seq : int;
  payload : 'a;
  mutable pos : int;  (** slot in the heap; -1 once popped or removed *)
}

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val all_after : 'a t -> int -> bool
(** [all_after t time]: every entry is due strictly after [time] (true
    when [t] is empty). An [int], so the test allocates nothing. *)

val add : 'a t -> time:int64 -> seq:int -> 'a -> 'a entry
(** [add t ~time ~seq payload] inserts an event and returns its entry, the
    handle {!remove} takes. The caller is responsible for supplying strictly
    increasing [seq] values. *)

val pop : 'a t -> 'a entry option
(** Remove and return the earliest entry. *)

val remove : 'a t -> 'a entry -> unit
(** [remove t e] deletes [e] in O(log n). A no-op if [e] was already popped
    or removed. *)
