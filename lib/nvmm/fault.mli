(** Deterministic media-fault model for the NVMM device.

    Two fault populations over the medium's cachelines: persistent poison
    (uncorrectable ECC — every load faults until the full line is
    rewritten) and transient read faults (fault once, the retry succeeds).
    All randomness comes from one seeded splitmix64 stream drawn in
    device-access order, so a fixed seed and workload give bit-identical
    fault placement. Attach to a device with {!Device.set_fault_model};
    detached ([None]) the device hot paths pay nothing. *)

exception
  Media_error of {
    addr : int;  (** byte address of the faulting cacheline *)
    transient : bool;  (** [true] when a bounded retry may succeed *)
  }

type t

val create :
  ?poison_rate:float -> ?transient_rate:float -> seed:int64 -> unit -> t
(** [poison_rate] is the per-line probability that a store to the medium
    leaves the line poisoned; [transient_rate] the per-line probability
    that a load faults once. Both default to [0.] (explicit injection
    only). *)

(** {1 Device hooks} — called by {!Device} with cacheline indices. *)

type load_fault = Poisoned | Transient

val check_load : t -> int -> load_fault option
(** Fault outcome for a load of one line; consumes a pending transient
    fault (so the retry succeeds) or may draw a fresh one. *)

val store_line : t -> int -> unit
(** A full line reached the medium: heals existing poison, may draw fresh
    store-time poison. *)

val heal_line : t -> int -> unit
(** Reliable full-line overwrite (poke / repair paths): heals existing
    poison, never draws. *)

(** {1 Injection and inspection (tests, scrub, fsck)} *)

val poison_line : t -> int -> unit
val clear_line : t -> int -> unit
val is_poisoned : t -> int -> bool

val poisoned_lines : t -> int list
(** Poisoned line indices, ascending. *)

(** {1 Counters}

    Faults delivered to loads are counted where the device raises them,
    in [Stats.media_faults_transient] and [Stats.media_faults_poison]. *)

val store_poisons : t -> int
(** Lines poisoned by failed stores (drawn, not injected). *)

val heals : t -> int
