(** Absolute-path handling: validation, splitting, joining.

    The namespace is deliberately simple: absolute slash-separated paths,
    no symlinks, no "." or "..". *)

val split : string -> string list
(** ["/a/b/c"] -> [["a"; "b"; "c"]]; ["/"] -> [[]].
    @raise Errno.Fs_error EINVAL on relative paths or bad components. *)

val split_dir : string -> string list * string
(** Directory components and the final component.
    @raise Errno.Fs_error EINVAL when the path has no final component. *)

val join : string list -> string
val concat : string -> string -> string
val basename : string -> string
val dirname : string -> string
