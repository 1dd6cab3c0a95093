(* Buffer Benefit Model and Eager-Persistent Write Checker state (§3.3.2).

   Each data block of a file carries a Lazy/Eager-Persistent state bit plus
   the counters the model needs:
   - N_cw: cacheline writes to the block since the previous sync;
   - the ghost-buffer dirty bitmap, whose population count is N_cf — the
     cacheline flushes the current sync would perform had every write been
     buffered (the ghost buffer keeps index metadata only, no data).

   At each synchronization covering the block, buffering was worthwhile iff

       N_cw * L_dram + N_cf * L_nvmm  <  N_cw * L_nvmm        (Inequality 1)

   If violated the block is set Eager-Persistent: subsequent asynchronous
   writes go straight to NVMM. The state decays back to Lazy when the
   file has not been synced for [eager_decay_ns] (checked lazily at write
   time against the file's last-sync time, as the paper does).

   Accuracy accounting (Fig. 6): a sync's prediction was accurate if the
   block's previous sync reached the same satisfied/violated verdict.

   Simplification (documented in DESIGN.md): the ghost buffer does not
   simulate background evictions, so N_cf is an upper bound — flushes that
   a background thread would have absorbed still count. This biases the
   model slightly toward Eager, which is the conservative direction for
   read consistency and barely matters for sync-heavy blocks. *)

(* Per written file block, a slot of flat arrays: a flags byte, N_cw, and
   the ghost bitmap as an unboxed 64-bit word; a [Blockmap] maps the block
   to its slot. Writes and syncs update them in place and allocate
   nothing: the model lives as long as its file, in the major heap, where
   each boxed value stored into it would be promoted to die. *)

module Blockmap = Hinfs_structures.Blockmap

(* Flags: the block's Eager-Persistent state, and its previous sync's
   verdict once it had one. A block with no slot takes the file's
   verdict. *)
let eager_bit = 1
let prev_known = 2
let prev_satisfied = 4

type file_model = {
  slot_of : Blockmap.t; (* fblock -> slot *)
  mutable slots : int; (* slots in use *)
  mutable flags : Bytes.t;
  mutable ncw : int array;
  mutable ghost : Bytes.t; (* 8 bytes per slot *)
  mutable last_sync : int; (* virtual ns *)
  mutable ever_synced : bool;
  mutable default_eager : bool;
      (* the file's most recent majority verdict, applied to blocks created
         after that sync. The paper initialises new blocks Lazy "before the
         arrival of their first synchronization operations" and thereafter
         decides "using the most recent synchronization information"; for
         append-dominated files (varmail, logs) every write targets a brand
         new block, so without this inheritance the checker could never
         route them direct. *)
  mutable mmap_pinned : bool; (* mmapped files stay Eager (§4.2) *)
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create_file_model () =
  {
    slot_of = Blockmap.create ();
    slots = 0;
    flags = Bytes.make 4 '\000';
    ncw = Array.make 4 0;
    ghost = Bytes.make 32 '\000';
    last_sync = 0;
    ever_synced = false;
    default_eager = false;
    mmap_pinned = false;
  }

let flags file s = Char.code (Bytes.unsafe_get file.flags s)
let set_flags file s v = Bytes.unsafe_set file.flags s (Char.unsafe_chr v)

(* A new slot, the arrays doubled when full. *)
let new_slot file =
  let n = Bytes.length file.flags in
  if file.slots = n then begin
    let flags = Bytes.make (2 * n) '\000' in
    let ghost = Bytes.make (16 * n) '\000' and ncw = Array.make (2 * n) 0 in
    Bytes.blit file.flags 0 flags 0 n;
    Bytes.blit file.ghost 0 ghost 0 (8 * n);
    Array.blit file.ncw 0 ncw 0 n;
    file.flags <- flags;
    file.ghost <- ghost;
    file.ncw <- ncw
  end;
  file.slots <- file.slots + 1;
  file.slots - 1

(* Record a (real or would-be) buffered write for the ghost buffer. *)
let record_write file fblock ~lines =
  let s =
    match Blockmap.find file.slot_of fblock with
    | -1 ->
      let s = new_slot file in
      Blockmap.add file.slot_of fblock s;
      (* New blocks start Lazy-Persistent before the file's first sync
         (§3.3.2) and inherit the file's latest verdict afterwards. *)
      if file.ever_synced && file.default_eager then set_flags file s eager_bit;
      s
    | s -> s
  in
  file.ncw.(s) <- file.ncw.(s) + Clbitmap.count lines;
  set64 file.ghost (8 * s) (Int64.logor (get64 file.ghost (8 * s)) lines)

(* The checker's verdict for an asynchronous write to [fblock] (case 2).
   Synchronous writes (case 1) are decided by the caller from the open
   flags / mount options. *)
let is_eager file fblock ~now ~eager_decay_ns =
  if file.mmap_pinned then true
  else begin
    let decayed =
      file.ever_synced
      && Int64.to_int now - file.last_sync > Int64.to_int eager_decay_ns
    in
    let s = Blockmap.find file.slot_of fblock in
    if s < 0 then
      (* Unwritten-since-tracking block: the file's latest verdict,
         subject to the same decay. *)
      file.ever_synced && file.default_eager && not decayed
    else
      let f = flags file s in
      if f land eager_bit = 0 then false
      else if decayed then begin
        (* Decay: no sync on this file for a while. *)
        set_flags file s (f land lnot eager_bit);
        false
      end
      else true
  end

(* Re-evaluate every block covered by the current synchronization
   operation. Returns the number of blocks evaluated. *)
let on_sync file ~now ~l_dram ~l_nvmm ~stats =
  let evaluated = ref 0 in
  let violated = ref 0 in
  for s = 0 to file.slots - 1 do
    let ncw = file.ncw.(s) in
    if ncw > 0 then begin
      incr evaluated;
      let f = flags file s in
      let ncf = Clbitmap.count (get64 file.ghost (8 * s)) in
      let satisfied = (ncw * l_dram) + (ncf * l_nvmm) < ncw * l_nvmm in
      if not satisfied then incr violated;
      if f land prev_known <> 0 then
        Hinfs_stats.Stats.bbm_prediction stats
          ~correct:(f land prev_satisfied <> 0 = satisfied);
      set_flags file s
        (prev_known lor if satisfied then prev_satisfied else eager_bit);
      file.ncw.(s) <- 0;
      set64 file.ghost (8 * s) 0L
    end
  done;
  if !evaluated > 0 then file.default_eager <- 2 * !violated > !evaluated;
  file.last_sync <- Int64.to_int now;
  file.ever_synced <- true;
  !evaluated

let pin_mmap file = file.mmap_pinned <- true
let unpin_mmap file = file.mmap_pinned <- false
