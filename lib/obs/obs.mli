(** Virtual-time observability: spans, instants, counters, histograms.

    The subsystem runs entirely on the simulator's virtual clock, so
    instrumentation never perturbs simulated time: recording a span reads
    {!Hinfs_sim.Engine.now} but performs no engine effect. That also means
    the latency data is free of coordinated omission — there is no
    measurement thread to fall behind, every operation is timed.

    A single sink can be installed globally ({!install}); all the
    [span_*]/[instant]/[counter] entry points are no-ops — and allocate
    nothing — while no sink is installed, so instrumented fast paths cost
    zero when observability is off (the default). *)

module Engine = Hinfs_sim.Engine

(** Span kinds: one per VFS syscall plus the internal phases that the
    paper's analysis cares about (journal commit, writeback, flush/fence
    stalls, bandwidth-slot waits). *)
type kind =
  | Op_open
  | Op_close
  | Op_read
  | Op_write
  | Op_fsync
  | Op_seek
  | Op_mkdir
  | Op_rmdir
  | Op_unlink
  | Op_rename
  | Op_readdir
  | Op_stat
  | Op_exists
  | Op_truncate
  | Op_mmap
  | Op_munmap
  | Op_msync
  | Op_sync_all
  | Op_unmount
  | Journal_commit
  | Journal_recover
  | Writeback
  | Buffer_fetch
  | Flush
  | Fence
  | Slot_wait
  | Nvcache_append  (** nvcache tier absorbing one write *)
  | Nvcache_destage  (** nvcache destage batch to the backend *)
  | Nvcache_replay  (** nvcache mount-time log/slot replay *)
  | Snapshot_commit  (** CoW root-swap commit (refcount fixpoint + swap) *)
  | Snapshot_gc  (** CoW snapshot deletion / rollback refcount walk *)
  | Req_lookup  (** serving layer: LOOKUP request, decode to reply *)
  | Req_getattr
  | Req_read
  | Req_write
  | Req_create
  | Req_remove
  | Req_rename
  | Req_commit
  | Srv_queue  (** request fan-in wait: client enqueue to worker pickup *)
  | Srv_decode  (** request decode on the worker *)
  | Srv_encode  (** reply encode on the worker *)
  | Srv_flush  (** serving-layer durability: stable write / COMMIT fsync *)

(** Instant (zero-duration) event kinds. *)
type ev =
  | Ev_bbm_eager  (** benefit model chose the eager persistence path *)
  | Ev_bbm_lazy  (** benefit model chose the lazy (buffered) path *)
  | Ev_mmap_pin
  | Ev_mmap_unpin
  | Ev_dead_drop  (** buffered block dropped without writeback *)
  | Ev_proc_spawn
  | Ev_session_expire  (** a=session id, b=cached opens reclaimed *)
  | Ev_estale  (** a=handle slot, b=generation that went stale *)
  | Ev_oc_evict  (** a=inode evicted from the open-file cache, b=1 if dirty *)

val kind_name : kind -> string
(** Stable dotted name, e.g. ["op.read"], ["journal.commit"]. *)

type t

val create : ?trace:bool -> Engine.t -> t
(** [trace] (default [false]) keeps individual events for Chrome-trace
    export, capped at 200_000 (overflow counted in
    {!dropped_events}); histograms and counters are always maintained. *)

val install : t -> unit
(** Make [t] the global sink and hook the engine's process spawn/switch
    callbacks. Replaces any previously installed sink. *)

val uninstall : unit -> unit
val current : unit -> t option
val enabled : unit -> bool

(** {2 Fast-path entry points} — no-ops (and allocation-free) when no sink
    is installed. *)

val span_begin : kind -> unit
val span_end : kind -> unit
(** Begin/end a nested span on the current process. [span_end] pops the
    innermost frame; a kind mismatch or pop of an empty stack increments
    {!mismatches} instead of raising. *)

val span_since : kind -> t0:int64 -> unit
(** Record a completed span from [t0] to now on the current process without
    touching the span stack. For leaf phases measured around a wait (e.g.
    bandwidth-slot acquisition) where begin/end bracketing is awkward. *)

val instant : ev -> a:int -> b:int -> unit
(** Record an instant event with two free-form integer arguments (pass 0
    when unused; plain ints so the disabled path allocates nothing). *)

val counter : string -> int -> unit
(** Record one sample of a named time-series counter. *)

(** {2 Sink inspection} *)

val reset : t -> unit
(** Clear histograms, counters, events and mismatch counts. Span stacks are
    preserved: processes mid-span across a measurement-window reset keep
    their frames (their in-flight span is recorded against the new window
    when it closes). *)

val open_spans : t -> int
(** Total frames currently open across all process stacks. *)

val mismatches : t -> int
val dropped_events : t -> int
val context_switches : t -> int

val hist : t -> kind -> Hist.summary
val nonempty_hists : t -> (kind * Hist.summary) list
(** In declaration order of {!kind}; only kinds with at least one sample. *)

val counter_summaries : t -> (string * Hist.summary) list
(** Per-counter sample statistics, sorted by counter name. *)

val start_sampler : t -> gauges:(string * (unit -> int)) list -> unit -> unit
(** [start_sampler t ~gauges] spawns a simulation process sampling every
    gauge each 1 ms of virtual time into {!counter}.
    Returns a stop function; the sampler exits at its next tick after stop,
    so the engine still drains. *)

(** {2 Export} *)

val chrome_trace : t -> Ojson.t
(** Chrome trace-event JSON ([{"traceEvents": [...]}]), loadable in
    Perfetto / chrome://tracing. Spans are "X" complete events with
    microsecond timestamps on the virtual clock, instants are "i", counter
    samples are "C"; process names are emitted as thread-name metadata. *)
