(** The four filebench personalities of the paper's Table 1.

    Sizes default to the laptop-scale calibration of the paper's setup
    (~64 MB filesets standing in for the paper's 5 GB; every ratio kept). *)

type params = {
  nfiles : int;
  mean_file_size : int;
  io_size : int;  (** transfer chunk — the paper's "mean I/O size" *)
  append_size : int;
  zipf_theta : float;  (** file-popularity skew *)
}

val default_params : params

val fileserver : ?params:params -> unit -> Workload.t
(** Creates, deletes, appends, whole-file reads and writes; near-uniform
    file choice. Almost all writes are lazy-persistent. *)

val webserver : ?params:params -> unit -> Workload.t
(** Read-intensive: 10 open-read-close rounds plus a log append. *)

val webproxy : ?params:params -> unit -> Workload.t
(** Short-lived files with strong locality (zipf 0.9). *)

val varmail : ?params:params -> unit -> Workload.t
(** Mail server: create-append-fsync / read-append-fsync — mostly
    eager-persistent appends. *)
