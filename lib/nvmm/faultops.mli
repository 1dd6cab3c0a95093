(** Seeded operation-level software fault injector.

    Forces the software resource paths to fail mid-transaction — block
    allocation (ENOSPC), inode allocation (out of inodes), journal slot
    allocation (journal full) — through the same code paths genuine
    exhaustion takes, so abort/rollback handling is exercised for real.
    Deterministic per seed; draws happen in site-visit order. *)

type t

type kind = Block_alloc | Inode_alloc | Journal_slot

val kinds : kind list
val kind_name : kind -> string

val create :
  ?block_alloc_rate:float ->
  ?inode_alloc_rate:float ->
  ?journal_slot_rate:float ->
  seed:int64 ->
  unit ->
  t
(** Rates are per-opportunity injection probabilities in [0, 1]. *)

val force : t -> kind -> after:int -> unit
(** Arm a deterministic one-shot: the [after]-th next opportunity of [kind]
    fails ([after = 0] fails the very next one). Takes priority over — and
    does not consume — the random stream. *)

val disarm : t -> kind -> unit

val check : t -> kind -> bool
(** Poll at an injection site: [true] means fail this opportunity. *)

val opportunities : t -> kind -> int
val injected : t -> kind -> int
