(** Dense bitmap backed by [Bytes]. *)

type t

val create : int -> t
(** All bits initially clear. *)

val count_set : t -> int
val count_clear : t -> int

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
val assign : t -> int -> bool -> unit
val clear_all : t -> unit

val find_first_clear : ?from:int -> t -> int option
val find_first_set : ?from:int -> t -> int option
