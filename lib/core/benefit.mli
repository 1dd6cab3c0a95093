(** Buffer Benefit Model and Eager-Persistent Write Checker state (§3.3.2).

    Per data block, tracks N_cw (cacheline writes since the previous sync)
    and a ghost-buffer dirty bitmap whose population count is N_cf (the
    flushes a sync would perform had every write been buffered). At each
    sync, buffering was worthwhile iff

    {v N_cw * L_dram + N_cf * L_nvmm < N_cw * L_nvmm v}

    Blocks violating the inequality turn Eager-Persistent; the state decays
    back to Lazy after [eager_decay_ns] without a sync on the file. *)

type file_model
(** Per-block state in flat arrays indexed by file block: updating it
    allocates nothing. *)

val create_file_model : unit -> file_model

val record_write : file_model -> int -> lines:Clbitmap.t -> unit
(** Ghost-buffer accounting for a write covering [lines] of the block. *)

val is_eager : file_model -> int -> now:int64 -> eager_decay_ns:int64 -> bool
(** The checker's verdict for an asynchronous write to the block (case 2);
    applies decay against the file's last sync time. *)

val on_sync :
  file_model ->
  now:int64 ->
  l_dram:int ->
  l_nvmm:int ->
  stats:Hinfs_stats.Stats.t ->
  int
(** Re-evaluate every block covered by this synchronization; updates block
    states and the Fig.-6 accuracy statistics. Returns the number of blocks
    evaluated. *)

val pin_mmap : file_model -> unit
(** Keep all blocks Eager-Persistent while the file is mmapped (§4.2). *)

val unpin_mmap : file_model -> unit
