(** Intrusive doubly-linked list with O(1) removal given the node.

    The front is the least-recently-used end; the back is the
    most-recently-used end. A node may belong to at most one list at a
    time. *)

type 'a node
type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val make_node : 'a -> 'a node
val value : 'a node -> 'a
val is_linked : 'a node -> bool

val push_back : 'a t -> 'a node -> unit
val push_front : 'a t -> 'a node -> unit

val remove : 'a t -> 'a node -> unit
(** @raise Invalid_argument if the node is not linked to this list. *)

val move_to_back : 'a t -> 'a node -> unit
val peek_front : 'a t -> 'a option
val peek_back : 'a t -> 'a option
val pop_front : 'a t -> 'a option

val iter : 'a t -> ('a -> unit) -> unit
(** Front-to-back iteration; [f] may remove the node it is visiting. *)

val iter_nodes : 'a t -> ('a node -> unit) -> unit
val to_list : 'a t -> 'a list
