(** Minimal JSON: deterministic emission plus a small strict parser.

    The repo deliberately has no JSON dependency; this module covers exactly
    what the observability exports need. Emission is deterministic: object
    fields print in the order given, integers print exactly, and floats use
    a fixed ["%.6f"] format, so byte-identical inputs yield byte-identical
    output (the determinism guarantee BENCH_HINFS.json relies on). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no whitespace) rendering. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for files meant to be read or diffed. *)

exception Parse_error of string

val of_string : string -> t
(** Strict parser for the subset this module emits (plus standard JSON
    escapes and scientific notation). @raise Parse_error on malformed
    input. *)

(** Accessors: [None] when the key is absent or the shape mismatches. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** Accepts [Int] too. *)

val to_list : t -> t list option
