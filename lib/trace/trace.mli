(** System-call trace model, synthetic generators, and the replayer
    (paper Table 1's trace workloads; Fig. 2 and Fig. 12).

    The original FIU/LASR/MobiBench traces are not redistributable, so
    each generator synthesises a trace matching the properties the paper
    reports: fsync-byte fractions, I/O sizes, locality, and — crucially
    for the Buffer Benefit Model — stable per-file synchronization
    behaviour (Doc-like burst-then-sync files, Log-like sync-every-write
    files, and never-synced Scratch files). *)

type op =
  | Read of { file : int; off : int; len : int }
  | Write of { file : int; off : int; len : int }
  | Unlink of { file : int }
  | Fsync of { file : int }

type t

val name : t -> string
val ops : t -> op list

(** {1 Generators} *)

val usr0 : ?ops:int -> ?seed:int64 -> unit -> t
(** FIU research-desktop trace: write-leaning, strong locality, a moderate
    fsync share. *)

val usr1 : ?ops:int -> ?seed:int64 -> unit -> t
(** Like {!usr0} at a different time: more write-heavy. *)

val lasr : ?ops:int -> ?seed:int64 -> unit -> t
(** Software-development machines: small I/O, {e no fsync at all}. *)

val facebook : ?ops:int -> ?seed:int64 -> unit -> t
(** MobiBench Facebook: SQLite-style sub-1KB writes, nearly every one
    followed by an fsync. *)

val all : ?ops:int -> unit -> t list

(** {1 Replay} *)

type replay_result = {
  r_trace : string;
  r_fs_name : string;
  r_elapsed_ns : int64;
  r_read_ns : int64;
  r_write_ns : int64;
  r_unlink_ns : int64;
  r_fsync_ns : int64;
  r_ops : int;
}

val pp_replay_result : Format.formatter -> replay_result -> unit

val replay :
  stats:Hinfs_stats.Stats.t -> t -> Hinfs_vfs.Vfs.handle -> replay_result
(** Pre-create the file population, quiesce, reset the stats, then execute
    the trace timing each op class (Fig. 12). Runs inside a simulation
    process. *)
