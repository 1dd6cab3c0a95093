(** Discrete-event simulation engine.

    The engine advances a virtual clock (nanoseconds, [int64]) and runs
    cooperative processes implemented with OCaml 5 effect handlers. All
    execution is single-threaded and deterministic: events scheduled for the
    same virtual time fire in scheduling order.

    Processes use the {!Proc} module for the in-process API ([delay],
    [now], ...); this module is the engine-side view. *)

type t

type 'a waker
(** A one-shot resumption handle for a suspended process. Waking an
    already-fired waker is a no-op, which makes timed waits race-free. *)

type _ Effect.t +=
  | Delay : int64 -> unit Effect.t
  | Spawn : (string * (unit -> unit)) -> unit Effect.t
  | Suspend : ('a waker -> unit) -> 'a Effect.t

exception Stopped
(** Raised inside processes to unwind them when the simulation aborts after a
    fatal error in another process. *)

val create : unit -> t

val now : t -> int64
(** Current virtual time in nanoseconds. *)

val live_processes : t -> int
(** Number of processes that have started and not yet returned. *)

val current_pid : t -> int
(** Id of the process currently running (0 for the engine / main context).
    Pids are assigned in spawn order, which is deterministic, so pids are
    stable across identical runs. *)

val proc_name : t -> int -> string
(** Name the process was spawned with ("engine" for pid 0, "process" for
    unknown pids). *)

val set_proc_hooks :
  t -> on_spawn:(int -> string -> unit) -> on_switch:(int -> unit) -> unit
(** Install observability hooks: [on_spawn pid name] fires when a process
    starts executing, [on_switch pid] whenever control transfers to a
    different process. Hooks must not perform engine effects. *)

val clear_proc_hooks : t -> unit

type timer
(** A scheduled event that can be cancelled before it fires. *)

val timer : t -> int64 -> (unit -> unit) -> timer
(** [timer t d thunk] is [after t d thunk], returning a handle for
    {!cancel}. *)

val cancel : t -> timer -> unit
(** Remove a timer's event from the queue unfired. A no-op if it already
    fired or was cancelled. *)

val pending : t -> int
(** Number of events in the queue. *)

val wake : 'a waker -> 'a -> bool
(** [wake w v] resumes the suspended process with value [v]. Returns [false]
    (and does nothing) if the waker already fired. *)

val is_fired : 'a waker -> bool

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Schedule a new process to start at the current virtual time. *)

val run : t -> unit
(** Run events until the queue drains. The first uncaught exception from
    any process aborts the run and is re-raised here. While it runs, [t]
    is the {!running} engine; the previous one is restored when it returns
    or raises, so runs nest. *)

val running : unit -> t
(** The engine of the innermost {!run} in progress.
    @raise Invalid_argument outside any run. *)

val try_advance : t -> int -> bool
(** [try_advance t d], from a process of [t]: when [d > 0] and every
    queued event is due strictly after [now t + d], moves the clock there
    and returns [true] (the process would be the next event popped, so
    this is exact); otherwise returns [false] and the caller must perform
    [Delay d]. Only {!Proc.delay} calls it; moving the clock allocates
    nothing. *)
