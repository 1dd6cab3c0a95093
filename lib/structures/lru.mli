(** Generic LRU recency tracker (hashtable + recency list).

    Tracks recency only; the caller decides when and what to evict. *)

type ('k, 'v) t

val create : ?initial_size:int -> unit -> ('k, 'v) t
val length : ('k, 'v) t -> int
val mem : ('k, 'v) t -> 'k -> bool
val find : ('k, 'v) t -> 'k -> 'v option

val touch : ('k, 'v) t -> 'k -> bool
(** Mark the key most-recently used. Returns [false] if absent. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert as most-recently used (replacing any previous binding). *)

val remove : ('k, 'v) t -> 'k -> bool

val peek_lru : ('k, 'v) t -> ('k * 'v) option
(** Least-recently-used entry, without removing it. *)

val pop_lru : ('k, 'v) t -> ('k * 'v) option

val find_lru_matching : ('k, 'v) t -> ('k -> 'v -> bool) -> ('k * 'v) option
(** Least-recent entry satisfying the predicate. *)

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
(** From least to most recently used. *)
