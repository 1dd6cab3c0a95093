(** Condition variable for simulation processes.

    No mutex is needed: the simulation is cooperatively scheduled, so a
    process owns the world between suspension points. *)

type t

type outcome = Signaled | Timed_out

val create : Engine.t -> t

val waiting : t -> int
(** Number of live (not yet woken) waiters. *)

val queued : t -> int
(** Number of wakers held, live or already fired. Queuing a waiter drops
    the fired ones, so this exceeds {!waiting} only by timeouts since the
    last wait. *)

val wait : t -> unit
(** Block until {!signal} or {!broadcast}. *)

val wait_timeout : t -> timeout:int64 -> outcome
(** Block until signaled or until [timeout] virtual ns elapse, whichever
    comes first. A non-positive timeout returns [Timed_out] immediately.
    Signalling the wait cancels its timer, so it leaves no event queued. *)

val signal : t -> bool
(** Wake one waiter. Returns [false] if none was waiting. *)

val broadcast : t -> int
(** Wake all waiters; returns how many were woken. *)
