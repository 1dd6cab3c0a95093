(** Map from a file's block numbers to non-negative ints, for per-file
    state that lives long and changes on the hot path.

    Blocks below {!dense_limit} sit in a flat array grown to the highest
    one stored, the rest in an {!Itbl} made on first use: a file written
    from its start costs a few words, and a sparse write far out costs
    no array sized to its offset. Adding or removing a binding allocates
    nothing once the structure has grown. *)

type t

val dense_limit : int

val create : unit -> t

val find : t -> int -> int
(** The value bound to the block, or -1. *)

val add : t -> int -> int -> unit
(** Bind the block, replacing any earlier binding.
    @raise Invalid_argument for a negative block or value. *)

val remove : t -> int -> unit

val to_list : t -> (int * int) list
(** The (block, value) bindings, highest block first. *)
