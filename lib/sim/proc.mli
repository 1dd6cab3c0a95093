(** In-process API for simulation processes.

    These helpers read the running engine's clock or perform its effects,
    and are only meaningful when called from inside a process running
    under {!Engine.run}. *)

val now : unit -> int64
(** Current virtual time (ns) of the {!Engine.running} engine, read without
    an effect.
    @raise Invalid_argument outside any {!Engine.run}. *)

val delay : int64 -> unit
(** Sleep for the given number of virtual nanoseconds. [delay 0L] and
    negative delays return immediately without yielding. When every queued
    event is due strictly after the wake-up time, the clock moves in place
    ({!Engine.try_advance}); otherwise the process waits in the event
    queue. Both give the same schedule. *)

val delay_int : int -> unit
(** [delay] taking an [int] of nanoseconds. *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** Start a child process at the current virtual time. *)

val suspend : ('a Engine.waker -> unit) -> 'a
(** Block the current process. [register] receives a one-shot waker; the
    process resumes with the value passed to {!Engine.wake}. *)
