(** Deterministic splitmix64 pseudo-random generator. *)

type t

val create : seed:int64 -> t

val next_int64 : t -> int64

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
