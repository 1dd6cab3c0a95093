(** Counted resource with FIFO waiters.

    Models contended hardware inside the simulation; acquiring blocks the
    calling process until enough units are free. Grants are strictly FIFO, so
    a large request is not starved by a stream of small ones. *)

type t

val create : name:string -> capacity:int -> t

val capacity : t -> int

val available : t -> int
(** Units currently free. *)

val queued : t -> int
(** Number of processes currently blocked on this resource. *)

val total_waits : t -> int
(** How many acquisitions had to block since creation. *)

val peak_queue : t -> int
(** Longest waiter queue observed. *)

val try_acquire : t -> int -> bool
(** Non-blocking acquire; fails (returns [false]) if the units are not
    immediately available or other processes are already queued. *)

val acquire : t -> int -> unit
(** Blocks the calling process until the units are granted, in FIFO
    order. *)

val release : t -> int -> unit

val with_resource : t -> int -> (unit -> 'a) -> 'a
(** [with_resource t n f] brackets [f] with [acquire]/[release]. *)
