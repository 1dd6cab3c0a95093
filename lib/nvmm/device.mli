(** Byte-addressable NVMM device with an explicit CPU-cache model.

    State is split into the persistent medium and a volatile overlay of
    dirty cachelines (the CPU cache). Ordinary stores land in the overlay
    and are lost on {!crash} until {!clflush}ed; non-temporal stores
    ({!write_nt}) reach the medium directly. Data-path operations consume
    virtual time and must be called from inside a simulation process; every
    cacheline streamed to the medium holds one of the N_w bandwidth slots.

    The medium is a sparse table of pages, each a table of immutable
    cachelines shared copy-on-write with the {!image}s taken of it: host
    memory holds only lines not all of one value (each value has one fill
    line and fill table) and the tables of pages holding one. Besides the
    page table, a page costs two bytes of host state: whether the device
    owns its table, and how many of its lines are dirty in the CPU cache
    (so a page has at most 255 lines; {!create} checks it).

    The ownership byte also says whether every line of the page that is
    not a fill line is the device's alone. A page is, from the store that
    takes it off a fill table until one of its lines is handed out
    ({!read_lines}), a held line is put in it ({!write_nt_lines}), an
    {!image} is taken, or recording starts or stops. Only there is a line
    a store or flush retires reused, for the next cached store's copy of
    a line: a metadata or journal store and its flush then allocate
    nothing. Nothing is reused while a recorder is attached. *)

type t

type image
(** An immutable medium image ({!snapshot}, crash states). Images and
    devices share tables and lines; a device copies a shared table (not
    its lines) on its first write to the page. *)

val create :
  Hinfs_sim.Engine.t -> Hinfs_stats.Stats.t -> Config.t -> t
(** @raise Invalid_argument when a page has more than 255 cachelines. *)

val config : t -> Config.t
val size : t -> int
val stats : t -> Hinfs_stats.Stats.t
val engine : t -> Hinfs_sim.Engine.t

val bandwidth : t -> Hinfs_sim.Resource.t
(** The N_w-slot NVMM write bandwidth limiter. *)

(** {1 Charging costs}

    The device is the one place a cost becomes virtual time and
    {!Hinfs_stats.Stats} time; every layer above charges through it. *)

val charge_ns : t -> Hinfs_stats.Stats.category -> int -> unit
(** [charge_ns t cat ns] books [ns] to [cat], then sleeps [ns] (so a run
    that stops mid-sleep still counts it). A charge of 0 or less does
    nothing. *)

val charge_memcpy :
  t -> Hinfs_stats.Stats.category -> [ `Read | `Write ] -> int -> unit
(** [charge_memcpy t cat access len] charges a CPU copy of [len] bytes that
    touches no NVMM: ⌈len / cacheline⌉ lines at [dram_read_ns] or
    [dram_write_ns]. *)

(** {1 Timed data-path operations} *)

val read :
  t ->
  cat:Hinfs_stats.Stats.category ->
  addr:int ->
  len:int ->
  into:Bytes.t ->
  off:int ->
  unit
(** Load a byte range (cache-coherent view: dirty overlay lines win). When
    a fault model is attached, raises {!Fault.Media_error} if a clean line
    in the range is poisoned or draws a transient read fault; the access
    latency is charged either way, so a retry pays again. *)

val read_lines :
  t ->
  cat:Hinfs_stats.Stats.category ->
  addr:int ->
  len:int ->
  into:Bytes.t array ->
  first:int ->
  unit
(** {!read} of whole lines by value: slot [first + i] of [into] takes
    cacheline [i] of the line-aligned range — the medium's own immutable
    line, or a private copy of a line dirty in the CPU cache. Charged,
    fault-checked and counted exactly as {!read}. Nobody may write a value
    it stores. *)

val read_retrying :
  t ->
  cat:Hinfs_stats.Stats.category ->
  addr:int ->
  len:int ->
  into:Bytes.t ->
  off:int ->
  unit
(** {!read}, retrying transient faults up to 3 times, immediately (each
    retry counted by [Stats.add_media_retry]). The final {!Fault.Media_error}
    propagates: a poisoned line, or a transient fault past the budget. *)

val read_alloc :
  t -> cat:Hinfs_stats.Stats.category -> addr:int -> len:int -> Bytes.t

val write_nt :
  ?background:bool ->
  t ->
  cat:Hinfs_stats.Stats.category ->
  addr:int ->
  src:Bytes.t ->
  off:int ->
  len:int ->
  unit
(** Non-temporal store: persistent immediately, pays NVMM latency and
    bandwidth. [background] attributes the bytes to background writeback. *)

val write_nt_lines :
  background:bool ->
  t ->
  cat:Hinfs_stats.Stats.category ->
  addr:int ->
  len:int ->
  lines:Bytes.t array ->
  first:int ->
  unit
(** {!write_nt} of whole lines by value: cacheline [i] of the line-aligned
    range becomes the line in slot [first + i] of [lines], not a copy of
    it. A line of one byte value stored is replaced by that value's fill
    line, and each slot takes the value the medium now holds. From the
    call on, the medium holds those values: nobody may write them again.
    Charged, recorded, fault-checked, merged with the CPU cache and
    counted exactly as {!write_nt}, at the same point in time. *)

val zero_nt :
  ?background:bool ->
  t ->
  cat:Hinfs_stats.Stats.category ->
  addr:int ->
  len:int ->
  unit
(** [write_nt] of [len] zero bytes, without a source buffer: charged,
    recorded, fault-checked and counted exactly as {!write_nt}. *)

val write_cached :
  t ->
  cat:Hinfs_stats.Stats.category ->
  addr:int ->
  src:Bytes.t ->
  off:int ->
  len:int ->
  unit
(** Ordinary store into the CPU cache: DRAM-speed, volatile until flushed. *)

val clflush :
  ?background:bool ->
  t ->
  cat:Hinfs_stats.Stats.category ->
  addr:int ->
  len:int ->
  unit
(** Flush the dirty cachelines intersecting the range to the medium. Dirty
    lines pay NVMM latency under a bandwidth slot; clean lines only pay the
    issue cost. *)

val mfence : t -> cat:Hinfs_stats.Stats.category -> unit

(** {1 Shared lines}

    The medium's cachelines are immutable values that images, crash
    states and the DRAM buffer may hold. A line of one byte value [c] is
    [c]'s fill line, one per device (shared with its images and the
    devices made from them). *)

val fill_line : t -> char -> Bytes.t
(** The fill line of a byte value. Nobody may write it. *)

val fill_of : t -> Bytes.t -> off:int -> len:int -> Bytes.t option
(** [fill_of t src ~off ~len] is the fill line of [c] when [src] holds [c]
    in every byte of [\[off, off+len)], by word compares.
    @raise Invalid_argument for an empty range or one outside [src]. *)

(** {1 Line tables}

    A page of the medium is a table of its cachelines, one slot each. A
    page whose lines are all [c]'s fill line is [c]'s fill table, shared
    and never written; any other table is owned by whoever set its slots.
    The DRAM buffer keeps its blocks in tables of the same shape and
    passes them through the functions below, so the device's spare tables
    (at most 32 owned tables no page uses) serve both: a table that
    becomes a fill table is kept as a spare, and the next copy of a fill
    table takes one instead of allocating. Every table passed in must
    have one slot per line of a page, and be a fill table or owned by the
    caller. @raise Invalid_argument for a table of another length. *)

val fill_table : t -> char -> Bytes.t array
(** The fill table of a byte value. Nobody may write it. *)

val own_table : t -> Bytes.t array -> Bytes.t array
(** [own_table t tbl] is [tbl] when the caller owns it, else (a fill
    table) an owned copy of it, in a spare table when there is one. *)

val settle_table : t -> Bytes.t array -> Bytes.t array
(** [settle_table t tbl] is the fill table of [c] when every slot of
    [tbl] holds [c]'s fill line, and [tbl] otherwise. An owned [tbl] that
    settles is the caller's no more: it becomes a spare. *)

val release_table : t -> Bytes.t array -> unit
(** The caller drops [tbl]: an owned table becomes a spare. *)

(** {1 Typed metadata accessors}

    Loads are untimed (cache-hot; the paper folds them into "Others").
    Stores go through the cached-write path so crash semantics stay exact. *)

val get_u8 : t -> int -> int
val get_u16 : t -> int -> int
val get_u32 : t -> int -> int
val get_u64 : t -> int -> int64
val set_u8 : t -> cat:Hinfs_stats.Stats.category -> int -> int -> unit
val set_u16 : t -> cat:Hinfs_stats.Stats.category -> int -> int -> unit
val set_u32 : t -> cat:Hinfs_stats.Stats.category -> int -> int -> unit
val set_u64 : t -> cat:Hinfs_stats.Stats.category -> int -> int64 -> unit
val set_bytes : t -> cat:Hinfs_stats.Stats.category -> addr:int -> Bytes.t -> unit

(** {1 Untimed access (setup, recovery inspection, tests)} *)

val peek : t -> addr:int -> len:int -> Bytes.t
(** Coherent view (overlay wins), no time charged. *)

val peek_persistent : t -> addr:int -> len:int -> Bytes.t
(** Medium contents only — what a crash would leave behind. *)

val walk_records :
  t ->
  persistent:bool ->
  addr:int ->
  len:int ->
  size:int ->
  (Bytes.t -> int -> bool) ->
  bool
(** [walk_records t ~addr ~len ~size f] calls [f buf off] on each whole
    [size]-byte record of [\[addr, addr+len)] in address order, the record
    being [buf] from [off], until [f] returns [false]; returns [false] iff
    [f] stopped the walk. Untimed, in {!peek_persistent}'s view if
    [persistent], else in {!peek}'s coherent one. A record inside one
    cacheline is read where it lies, with no copy: [f] must neither
    write nor keep [buf], and must not store to the device. *)

val poke : t -> addr:int -> src:Bytes.t -> off:int -> len:int -> unit
(** Untimed raw store to the medium (mkfs-time initialisation). *)

val poke_flushed : t -> addr:int -> src:Bytes.t -> off:int -> len:int -> unit
(** Untimed reliable store that the persistence recorder can see: behaves
    like {!poke} (direct to the medium, heals fully covered poisoned lines,
    never draws faults) but registers with the recorder as a
    flushed-but-unfenced version, ordered by the next {!fence_untimed} or
    {!mfence}. Recovery, scrub, and superblock repair use it so crash
    enumeration covers a re-crash in the middle of repair. *)

val fence_untimed : t -> unit
(** Untimed ordering point pairing with {!poke_flushed}: runs the recorder's
    fence (on_fence hook, then version collapse) without charging time or
    stats. No-op when recording is off. *)

val dirty_cachelines : t -> int
(** Number of cachelines currently dirty in the CPU cache. *)

val is_dirty_line : t -> int -> bool

val dirty_line_addrs : t -> int list
(** Byte addresses (ascending) of the cachelines currently dirty in the
    CPU cache. *)

val crash : t -> unit
(** Drop the volatile overlay: everything not flushed is lost. *)

val snapshot : t -> image
(** The persistent medium — the image a crash would leave. *)

val of_snapshot :
  Hinfs_sim.Engine.t -> Hinfs_stats.Stats.t -> Config.t -> image -> t
(** Fresh device initialised from a {!snapshot} (crash-consistency
    testing). Writes to either side stay invisible to the other.
    @raise Invalid_argument if the image's geometry differs from the
    config's. *)

val image_digest : image -> Digest.t
(** Digest of the image's contents: images with equal bytes have equal
    digests. *)

val image_to_bytes : image -> Bytes.t
(** The image's bytes, flat (tests and inspection). *)

val resident_pages : t -> int
(** Pages of the medium with a table of their own (one pointer per line),
    i.e. not a shared fill table, the one per byte value that stands for
    every page holding only that value (the zero table among them). *)

val resident_lines : t -> int
(** Cachelines of the medium with host memory of their own (not a fill line). *)

val flush_all_untimed : t -> unit
(** Push the whole overlay to the medium without charging time, through the
    same per-line path as {!clflush}, then mark the result guaranteed
    (test/setup helper; real code paths use {!clflush}). *)

(** {1 Persistence-event recording (crash-state enumeration)}

    When enabled, the device records every store/flush/fence so that the
    set of legal crash images under the x86 persistency model can be
    enumerated: any subset of not-yet-fenced line versions may have reached
    the medium; everything flushed before an {!mfence} is guaranteed.
    Recording costs nothing when disabled. *)

type crash_state = {
  cs_label : string;
  cs_image : image;  (** the medium at the crash point *)
  cs_line_size : int;
  cs_choices : (int * Bytes.t array) list;
      (** per undecided cacheline (index ascending): the legal candidate
          contents; candidate 0 is the guaranteed one *)
}

val enable_recording : t -> unit
(** Flushes the overlay (so the pre-existing state is the guaranteed
    baseline) and starts recording persistence events. *)

val disable_recording : t -> unit
val recording : t -> bool

val set_on_fence : t -> (unit -> unit) -> unit
(** Hook invoked on every {!mfence}, before the fence takes effect —
    i.e. while the to-be-fenced versions are still undecided. Crashmc uses
    it to capture crash states at every ordering point. *)

val recorded_events : t -> int * int * int
(** [(stores, flushes, fences)] recorded so far; zeros when disabled. *)

val pending_choice_lines : t -> int
(** Number of cachelines whose crash content is currently undecided. *)

val capture_crash_state : ?label:string -> t -> crash_state

val materialize_crash_image : crash_state -> choice:int array -> image
(** Concrete crash image: the medium at the crash point with [choice.(i)]
    selecting the persisted candidate of the [i]-th undecided line. It
    shares every line but the undecided ones, and every table but those
    of the pages holding one. Feed the result to {!of_snapshot}. *)

(** {1 Media-fault model}

    Like the recorder, the fault model is attached on demand and costs
    nothing when absent. Attached, every timed {!read} of a clean line
    consults it (poisoned lines and transient draws raise
    {!Fault.Media_error}); every full line streamed to the medium
    ({!write_nt}, {!clflush}) heals poison and may draw store-time poison;
    {!poke} is the reliable repair path (heals, never draws). Untimed
    {!peek}/{!peek_persistent} stay unchecked — they are the oracle's view
    of the medium, not an access a real CPU could make. *)

val set_fault_model : t -> Fault.t option -> unit
val fault_model : t -> Fault.t option

val verify_range : t -> addr:int -> len:int -> int list
(** Byte addresses (ascending) of poisoned cachelines intersecting the
    range — untimed inspection for scrub/fsck/recovery. Empty when no
    fault model is attached. *)
