(** Reader-writer lock for simulation processes.

    Writer-preferring: once a writer queues, later readers wait behind it. *)

type t

val create : unit -> t
val with_read : t -> (unit -> 'a) -> 'a
val with_write : t -> (unit -> 'a) -> 'a
