(** Fileset population, filebench-style: a 16-way directory tree of
    pre-allocated files with a long-tailed size distribution. *)

type t = {
  dir : string;
  nfiles : int;
  mean_size : int;
}

val file_path : t -> int -> string
(** Path of the [i]-th fileset entry. *)

val sample_size : t -> Hinfs_sim.Rng.t -> int
(** Draw a file size around the mean (clamped gamma-like distribution). *)

val populate :
  Hinfs_vfs.Vfs.handle -> t -> Hinfs_sim.Rng.t -> io_size:int -> unit
(** Create the directory tree and all files (idempotent on directories). *)
