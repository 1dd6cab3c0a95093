(* Byte-addressable NVMM device with an explicit CPU-cache model.

   Two layers of state:
   - the medium: the NVMM itself; survives [crash]. It is a sparse page
     table of block-size pages, each a table of cachelines. A line is
     never written in place: a store points its slot at a new line. A
     line whose bytes all hold one value [c] is the one shared fill line
     of [c] (made on first use), and a page whose lines are all [c]'s
     fill line is [c]'s shared fill table (a never-written page is the
     zero table), so host memory holds only the lines of mixed bytes and
     the tables of pages that have one. Tables are shared copy-on-write
     with the images taken of the device ({!snapshot}, crash states): a
     device sets slots in place only in tables it owns, never a fill
     table, and copies any other table on its first write, so an image
     is immutable and taking one copies page pointers, not lines. A line
     the device retires is garbage unless the device knows nobody else
     holds it: see [owned] and [spare_line].
   - [overlay]: cachelines currently dirty in the (volatile) CPU cache.
     Ordinary stores ([write_cached], [set_u*]) land here and are lost on
     [crash] until [clflush]ed. Non-temporal stores ([write_nt]) bypass the
     cache and reach the medium directly, like movnti/clwb streaming copies
     (PMFS's copy_from_user_inatomic_nocache data path). A per-page count
     of overlay lines ([dirty_in_page], one byte a page: a page has at
     most 255 lines) answers "is this line dirty?" for a clean page
     without a table lookup.

   Timing: loads cost DRAM speed (the paper assumes symmetric reads); every
   cacheline stored to the medium costs [nvmm_write_ns] and must hold one of
   the N_w bandwidth slots while it streams, reproducing the paper's
   bandwidth emulator. Waiting for a slot is charged to the caller's stats
   category, because that is exactly the foreground/background interference
   the paper discusses (§3.2.1). *)

(* Tables keyed by cacheline index, by open addressing: a line entering
   or leaving one allocates nothing. Nothing reads an [Itbl]'s iteration
   order: every walk that reaches the output sorts by index or only
   counts. *)
module Itbl = Hinfs_structures.Itbl

(* Persistence-event recorder (off by default, zero cost when disabled).

   Under the x86 persistency model a store is volatile until its line is
   flushed, and a flush only becomes *ordered* at the next mfence: a crash
   may persist any subset of the not-yet-fenced line versions, while
   everything fenced is guaranteed on the medium. The recorder keeps, per
   cacheline, the set of contents the medium may legally hold at a crash:

   - [base]: the guaranteed content — last fenced version (or the medium
     content when the line first became pending);
   - [versions]: newer candidate contents, newest first (an O(1) push;
     the fence collapse and the crash-state capture read them in order). A
     [clflush] pushes
     a flushed-but-unfenced version; a store in a *later epoch* than the
     previous store first snapshots the pre-store cached content (the old
     epoch's value could be evicted on its own); non-temporal stores push
     their post-store medium content (they reach the medium but are only
     ordered by the next fence).

   An [mfence] closes the epoch: every version up to the last *flushed* one
   becomes guaranteed (collapsed into [base]); unflushed cached content
   stays pending. The current dirty overlay line, when present, is always
   an additional candidate (spontaneous eviction). *)
module Record = struct
  type version = { content : Bytes.t; flushed : bool }

  type line = {
    mutable base : Bytes.t;
    mutable versions : version list; (* newest first *)
    mutable store_epoch : int; (* epoch of last store while dirty; -1 clean *)
  }

  type t = {
    mutable epoch : int; (* fences seen since recording was enabled *)
    lines : line Itbl.t; (* cacheline index -> pending record *)
    mutable stores : int;
    mutable flushes : int;
    mutable fences : int;
    mutable on_fence : unit -> unit;
  }

  (* The [lines] table's empty value. *)
  let no_line = { base = Bytes.empty; versions = []; store_epoch = -1 }

  let create () =
    {
      epoch = 0;
      lines = Itbl.create ~dummy:no_line 256;
      stores = 0;
      flushes = 0;
      fences = 0;
      on_fence = (fun () -> ());
    }
end

(* A page's cachelines, in address order; lines are never written. *)
type table = Bytes.t array

(* An immutable medium image: the page table, whose tables nobody writes
   again, and the fill tables it may share. *)
type image = { img_pages : table array; img_fills : table array }

type t = {
  engine : Hinfs_sim.Engine.t;
  stats : Hinfs_stats.Stats.t;
  config : Config.t;
  pages : table array; (* page index -> lines; a fill table, or private *)
  owned : Bytes.t; (* per page: [shared], [private_] or '\000' (not owned) *)
  spares : table array; (* [0, nspares): owned tables no page uses *)
  mutable nspares : int;
  spare_lines : Bytes.t array; (* [0, nspare_lines): lines nobody holds *)
  mutable nspare_lines : int;
  fills : table array;
      (* byte value -> its fill table, empty until first used; entry 0 is
         the zero table. Shared with the images and the devices made from
         them, which only ever add entries. *)
  overlay : Bytes.t Itbl.t;
      (* cacheline index -> line content; [Bytes.empty] for none *)
  dirty_in_page : Bytes.t; (* page index -> overlay lines in it, a byte *)
  mutable dirty_lines : int; (* overlay lines in all *)
  lines_per_page : int;
  bandwidth : Hinfs_sim.Resource.t;
  mutable recorder : Record.t option;
  mutable fault : Fault.t option; (* media-fault model; None = perfect *)
}

(* One crash point: the guaranteed medium image plus, for every line whose
   persisted content is undecided, the list of legal candidate contents
   (index 0 is the guaranteed one). A concrete crash image picks one
   candidate per line independently. *)
type crash_state = {
  cs_label : string;
  cs_image : image; (* the medium at capture, shared copy-on-write *)
  cs_line_size : int;
  cs_choices : (int * Bytes.t array) list; (* line idx (ascending) -> candidates *)
}

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Resource = Hinfs_sim.Resource
module Stats = Hinfs_stats.Stats
module Obs = Hinfs_obs.Obs

(* Owned tables kept for reuse, at most (see [copy_table]). *)
let max_spares = 32

(* Private lines kept for reuse, at most (see [copy_line]). *)
let max_spare_lines = 64

(* The states of an owned page, one byte each in [owned]; '\000' is a
   page the device does not own. In an owned page the device may set
   slots; in a [private_] one, besides, every line that is not a fill
   line is the device's own: no image, recorder or DRAM-buffer block
   holds it, so a line the page drops may be reused. A page is
   [private_] when the device takes it from a fill table, and becomes
   [shared] when one of its lines is handed out or a held line is put
   in it ([share_page]); [snapshot] disowns every page. *)
let shared = '\001'
let private_ = '\002'

(* A device over [pages] (a table the device may keep: nothing else holds
   it), owning none of them. *)
let of_pages engine stats config ~fills pages =
  let lines_per_page = Config.cachelines_per_block config in
  (* A page's overlay count is one byte. *)
  if lines_per_page > 255 then
    invalid_arg "Device: more than 255 cachelines per page";
  {
    engine;
    stats;
    config;
    pages;
    owned = Bytes.make (Array.length pages) '\000';
    spares = Array.make max_spares [||];
    nspares = 0;
    spare_lines = Array.make max_spare_lines Bytes.empty;
    nspare_lines = 0;
    fills;
    overlay = Itbl.create ~dummy:Bytes.empty 1024;
    dirty_in_page = Bytes.make (Array.length pages) '\000';
    dirty_lines = 0;
    lines_per_page;
    bandwidth =
      Resource.create ~name:"nvmm-write-bandwidth"
        ~capacity:(Config.nw_slots config);
    recorder = None;
    fault = None;
  }

let create engine stats config =
  let config = Config.validate config in
  let zero = Bytes.make config.Config.cacheline_size '\000' in
  let fills = Array.make 256 [||] in
  fills.(0) <- Array.make (Config.cachelines_per_block config) zero;
  of_pages engine stats config ~fills
    (Array.make (Config.blocks config) fills.(0))

let config t = t.config
let size t = t.config.Config.nvmm_size
let stats t = t.stats
let engine t = t.engine
let bandwidth t = t.bandwidth

let line_size t = t.config.Config.cacheline_size

let check_range t ~addr ~len =
  if len < 0 then invalid_arg "Device: negative length";
  if addr < 0 || addr + len > size t then
    Fmt.invalid_arg "Device: range [%d, %d) out of bounds (size %d)" addr
      (addr + len) (size t)

(* --- the paged medium --- *)

let page_size t = t.config.Config.block_size

(* --- line tables ---

   A page's lines live in a table of [lines_per_page] slots; the DRAM
   buffer keeps its blocks in tables of the same shape and takes and
   returns them here, so one set of spare tables serves both. *)

(* A table or line is a fill one iff it is the one of its first byte. *)
let is_fill fills tbl = fills.(Char.code (Bytes.unsafe_get tbl.(0) 0)) == tbl

let is_fill_line fills line =
  let tbl = fills.(Char.code (Bytes.unsafe_get line 0)) in
  Array.length tbl > 0 && tbl.(0) == line

(* The fill table of [c], made on first use; its lines: [c]'s fill line. *)
let fill_table t c =
  let tbl = t.fills.(Char.code c) in
  if Array.length tbl > 0 then tbl
  else begin
    let tbl = Array.make t.lines_per_page (Bytes.make (line_size t) c) in
    t.fills.(Char.code c) <- tbl;
    tbl
  end

(* A table holding [src]'s lines that nobody else holds: a spare when
   there is one. Tables cycle between fill and owned: a data page written
   whole with one byte value collapses to that value's fill table, a
   journal or metadata page whose lines are all cleared to the zero table,
   a DRAM-buffer block written back whole to its fill table, and their
   next partial store owns them again. A fresh copy each time would be a
   table promoted to the major heap only to die there. *)
let copy_table t src =
  if t.nspares = 0 then Array.copy src
  else begin
    t.nspares <- t.nspares - 1;
    let tbl = t.spares.(t.nspares) in
    t.spares.(t.nspares) <- [||];
    Array.blit src 0 tbl 0 (Array.length src);
    tbl
  end

(* [tbl], owned and used by nobody any more, becomes a spare while there
   is room, holding the zero line so that it pins no dead line. *)
let spare_table t tbl =
  if t.nspares < max_spares then begin
    Array.fill tbl 0 (Array.length tbl) t.fills.(0).(0);
    t.spares.(t.nspares) <- tbl;
    t.nspares <- t.nspares + 1
  end

let check_table t tbl =
  if Array.length tbl <> t.lines_per_page then
    invalid_arg "Device: table of the wrong length"

let own_table t tbl =
  check_table t tbl;
  if is_fill t.fills tbl then copy_table t tbl else tbl

let release_table t tbl =
  check_table t tbl;
  if not (is_fill t.fills tbl) then spare_table t tbl

(* Whether every slot of [tbl] from [i] down holds [line]. *)
let rec all_from tbl line i =
  i < 0 || (tbl.(i) == line && all_from tbl line (i - 1))

(* The fill table [tbl] stands for, or [tbl]. Tables fill in address
   order, so the last slot is checked first. *)
let uniform_table t tbl =
  let last = Array.length tbl - 1 in
  let line = tbl.(last) in
  if is_fill_line t.fills line && all_from tbl line (last - 1) then
    t.fills.(Char.code (Bytes.unsafe_get line 0))
  else tbl

let settle_table t tbl =
  check_table t tbl;
  let fill = uniform_table t tbl in
  if fill != tbl then spare_table t tbl;
  fill

(* Table [p], made settable in place: a table the device does not own (a
   fill table, or one shared with an image) is copied first. *)
let own_page t p =
  if Bytes.unsafe_get t.owned p <> '\000' then t.pages.(p)
  else begin
    let src = t.pages.(p) in
    let tbl = copy_table t src in
    t.pages.(p) <- tbl;
    Bytes.unsafe_set t.owned p
      (if is_fill t.fills src then private_ else shared);
    tbl
  end

(* Someone besides the device holds, or may hold, a line of page [p]. *)
let share_page t p =
  if Bytes.unsafe_get t.owned p = private_ then
    Bytes.unsafe_set t.owned p shared

(* Page [p] becomes [c]'s fill table. The table it drops, when owned, is
   no image's and no other page's: it becomes a spare. *)
let fill_page t p c =
  if Bytes.unsafe_get t.owned p <> '\000' then spare_table t t.pages.(p);
  t.pages.(p) <- fill_table t c;
  Bytes.unsafe_set t.owned p '\000'

(* [line], a private line that nobody holds any more, becomes a spare
   while there is room. Metadata and journal lines cycle: a cached store
   copies the medium's line, and its flush replaces that line with the
   copy, so a fresh copy each time is a line promoted to the major heap
   only to die there. Nothing is kept while a recorder is attached: its
   records hold medium lines. *)
let spare_line t line =
  match t.recorder with
  | Some _ -> ()
  | None ->
    if t.nspare_lines < max_spare_lines then begin
      t.spare_lines.(t.nspare_lines) <- line;
      t.nspare_lines <- t.nspare_lines + 1
    end

(* A private copy of the line in [src] from [off]: a spare when there is
   one. *)
let copy_line t src off =
  let ls = line_size t in
  if t.nspare_lines = 0 then Bytes.sub src off ls
  else begin
    t.nspare_lines <- t.nspare_lines - 1;
    let line = t.spare_lines.(t.nspare_lines) in
    t.spare_lines.(t.nspare_lines) <- Bytes.empty;
    Bytes.blit src off line 0 ls;
    line
  end

external get_int64_unsafe : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let rec uniform_from src c i stop =
  i >= stop || (Bytes.unsafe_get src i = c && uniform_from src c (i + 1) stop)

(* Whether [src] holds [c] in every byte of [off, off+len): whole words,
   each compared with [w], [c] in every byte, then the tail bytes. *)
let uniform src off len c =
  let stop = off + len in
  if off < 0 || stop > Bytes.length src then invalid_arg "Device: bad range";
  let w = Int64.mul (Int64.of_int (Char.code c)) 0x0101010101010101L in
  let i = ref off in
  while !i + 8 <= stop && Int64.equal (get_int64_unsafe src !i) w do
    i := !i + 8
  done;
  uniform_from src c !i stop

(* The medium's line [idx], shared: nobody may write it. *)
let medium_line t idx =
  let p = idx / t.lines_per_page in
  t.pages.(p).(idx - (p * t.lines_per_page))

let fill_line t c = (fill_table t c).(0)

let fill_of t src ~off ~len =
  if len <= 0 || off < 0 || off + len > Bytes.length src then
    invalid_arg "Device.fill_of: bad range";
  let c = Bytes.unsafe_get src off in
  if uniform src off len c then Some (fill_line t c) else None

(* [line], a line nobody writes again, or the fill line of its bytes. *)
let settle t line =
  let c = Bytes.unsafe_get line 0 in
  if uniform line 0 (Bytes.length line) c then fill_line t c else line

(* [settle] of a private [line]: one that settles is nobody's, a spare. *)
let settle_private t line =
  let settled = settle t line in
  if settled != line then spare_line t line;
  settled

(* Point slot [s] of page [p] at [line], which nobody writes again. A page
   of one fill line becomes its fill table. The line the slot held, in a
   [private_] page, is nobody's any more: a spare. *)
let set_slot t p s line =
  let old = t.pages.(p).(s) in
  if old != line then begin
    let retired =
      Bytes.unsafe_get t.owned p = private_ && not (is_fill_line t.fills old)
    in
    let tbl = own_page t p in
    tbl.(s) <- line;
    if uniform_table t tbl != tbl then fill_page t p (Bytes.unsafe_get line 0);
    if retired then spare_line t old
  end

(* Copy medium bytes [addr, addr+len) into [dst] from [doff], a page
   segment at a time: a fill table's in one fill, others line by line. *)
let rec medium_read t ~addr dst doff len =
  let ps = page_size t and ls = line_size t in
  let p = addr / ps in
  let po = addr - (p * ps) in
  let n = Int.min len (ps - po) in
  let tbl = t.pages.(p) in
  if is_fill t.fills tbl then Bytes.fill dst doff n (Bytes.unsafe_get tbl.(0) 0)
  else begin
    let s = ref (po / ls) and pos = ref po in
    while !pos < po + n do
      let lo = !pos - (!s * ls) in
      let k = Int.min (ls - lo) (po + n - !pos) in
      Bytes.blit tbl.(!s) lo dst (doff + !pos - po) k;
      pos := !pos + k;
      incr s
    done
  end;
  if n < len then medium_read t ~addr:(addr + n) dst (doff + n) (len - n)

(* Store [src] from [off] to medium bytes [addr, addr+len). A whole page
   of one value [c] becomes [c]'s fill table, and a whole line of one
   value [c]'s fill line; any other line stored is replaced by a new one,
   settled, with the old line's unstored bytes. *)
let rec medium_write t ~addr src off len =
  let ps = page_size t and ls = line_size t in
  let p = addr / ps in
  let po = addr - (p * ps) in
  let n = Int.min len (ps - po) in
  let c = Bytes.unsafe_get src off in
  if n = ps && uniform src off ps c then fill_page t p c
  else begin
    let s = ref (po / ls) and pos = ref po in
    while !pos < po + n do
      let lo = !pos - (!s * ls) in
      let k = Int.min (ls - lo) (po + n - !pos) in
      let from = off + !pos - po in
      let line =
        if k < ls then begin
          let line = copy_line t t.pages.(p).(!s) 0 in
          Bytes.blit src from line lo k;
          settle_private t line
        end
        else
          let c = Bytes.unsafe_get src from in
          if uniform src from ls c then fill_line t c
          else copy_line t src from
      in
      set_slot t p !s line;
      pos := !pos + k;
      incr s
    done
  end;
  if n < len then medium_write t ~addr:(addr + n) src (off + n) (len - n)

let resident_pages t =
  Array.fold_left
    (fun n tbl -> if is_fill t.fills tbl then n else n + 1)
    0 t.pages

let resident_lines t =
  let count n line = if is_fill_line t.fills line then n else n + 1 in
  Array.fold_left (Array.fold_left count) 0 t.pages

(* The one place a cost becomes virtual time and [Stats] time. [sleep]
   books [ns] to [cat] once it has passed (a delay resumes exactly [ns]
   later), so a run that stops mid-sleep does not count it. Device
   operations pass ints and no closure, and read the clock only for an
   [Obs] span or a wait for a bandwidth slot: an operation that does
   neither allocates nothing. *)
let sleep t cat ns =
  Proc.delay_int ns;
  if ns > 0 then Stats.add_time t.stats cat ns

(* The start of an [Obs] span, read only when a sink is installed. *)
let span_start () = if Obs.enabled () then Proc.now () else 0L

(* [n] bytes reached the medium. A [bool] passed on to the optional
   argument would be boxed in a fresh [Some]; a constant one is not. *)
let add_written t ~background n =
  if background then Stats.add_nvmm_written ~background:true t.stats n
  else Stats.add_nvmm_written t.stats n

(* A fixed cost computed by the caller. The time is booked before the
   sleep, so a run that ends mid-sleep still counts it; 0 does nothing. *)
let charge_ns t cat ns =
  if ns > 0 then begin
    Stats.add_time t.stats cat ns;
    Proc.delay_int ns
  end

(* A CPU copy of [len] bytes at DRAM speed, one cost per cacheline. *)
let charge_memcpy t cat access len =
  let ls = t.config.Config.cacheline_size in
  let per_line =
    match access with
    | `Read -> t.config.Config.dram_read_ns
    | `Write -> t.config.Config.dram_write_ns
  in
  charge_ns t cat ((len + ls - 1) / ls * per_line)

(* --- volatile overlay helpers --- *)

(* Every line entering or leaving the overlay is counted here ([crash]
   zeroes the counts), in its page for [is_dirty_line] and in all for
   [dirty_cachelines]; checking the one checks the bookkeeping of both. *)
let count_line t idx delta =
  let p = idx / t.lines_per_page in
  Bytes.set_uint8 t.dirty_in_page p (Bytes.get_uint8 t.dirty_in_page p + delta);
  t.dirty_lines <- t.dirty_lines + delta

let add_overlay t idx line =
  Itbl.replace t.overlay idx line;
  count_line t idx 1

let drop_overlay t idx =
  Itbl.remove t.overlay idx;
  count_line t idx (-1)

let overlay_line t idx =
  let line = Itbl.get t.overlay idx in
  if line != Bytes.empty then line
  else begin
    let line = copy_line t (medium_line t idx) 0 in
    add_overlay t idx line;
    line
  end

let dirty_cachelines t = t.dirty_lines

let is_dirty_line t idx =
  t.dirty_lines > 0
  && Bytes.get_uint8 t.dirty_in_page (idx / t.lines_per_page) > 0
  && Itbl.mem t.overlay idx

(* The one loop over the cached lines a byte range [addr, addr+len)
   touches, each clipped to the range; [buf] holds the range from [off].
   [Load] copies the cached bytes into [buf] (a load sees a dirty line in
   the CPU cache, not the stale medium); [Merge] copies [buf] into the
   cached copies of the lines a store covers; [Merge_nt] does the same but
   drops fully covered lines from the cache instead (each a spare: the
   overlay never hands its lines out). A variant rather than
   a callback, so the load and store paths allocate no closure. *)
type span_op = Load | Merge | Merge_nt

let cached_spans t op ~addr ~len buf off =
  if len > 0 && t.dirty_lines > 0 then begin
    let ls = line_size t in
    for idx = addr / ls to (addr + len - 1) / ls do
      if is_dirty_line t idx then begin
        let line = Itbl.get t.overlay idx in
        let line_start = idx * ls in
        let copy_start = Int.max addr line_start in
        let n = Int.min (addr + len) (line_start + ls) - copy_start in
        let line_off = copy_start - line_start in
        let buf_off = off + copy_start - addr in
        match op with
        | Load -> Bytes.blit line line_off buf buf_off n
        | Merge_nt when n = ls ->
          drop_overlay t idx;
          spare_line t line
        | Merge | Merge_nt -> Bytes.blit buf buf_off line line_off n
      end
    done
  end

let dirty_line_addrs t =
  let ls = line_size t in
  Itbl.fold (fun idx _ acc -> (idx * ls) :: acc) t.overlay []
  |> List.sort compare

(* --- recorder hooks (no-ops when recording is disabled) --- *)

let record_line t (r : Record.t) idx =
  let rl = Itbl.get r.Record.lines idx in
  if rl != Record.no_line then rl
  else begin
    let rl =
      {
        Record.base = medium_line t idx;
        versions = [];
        store_epoch = -1;
      }
    in
    Itbl.replace r.Record.lines idx rl;
    rl
  end

(* Called BEFORE the store mutates the overlay line: if the line is dirty
   from an earlier epoch, the pre-store cached content is itself a legal
   crash candidate (it could have been evicted before this store). *)
let record_store t idx =
  match t.recorder with
  | None -> ()
  | Some r ->
    r.Record.stores <- r.Record.stores + 1;
    let rl = record_line t r idx in
    let line = Itbl.get t.overlay idx in
    if
      line != Bytes.empty
      && rl.Record.store_epoch >= 0
      && rl.Record.store_epoch < r.Record.epoch
    then
      rl.Record.versions <-
        { Record.content = Bytes.copy line; flushed = false }
        :: rl.Record.versions;
    rl.Record.store_epoch <- r.Record.epoch

(* Called with the dirty line content just before it is blitted to the
   medium: the flushed content is persistent-but-unordered until the next
   fence. *)
let record_flush t idx content =
  match t.recorder with
  | None -> ()
  | Some r ->
    r.Record.flushes <- r.Record.flushes + 1;
    let rl = record_line t r idx in
    rl.Record.versions <-
      { Record.content = Bytes.copy content; flushed = true }
      :: rl.Record.versions;
    rl.Record.store_epoch <- -1

(* Non-temporal stores reach the medium directly but are only ordered by the
   next fence: record the pre-store medium content as base (if the line was
   not already pending) and the post-store medium line as a flushed
   candidate. [pre] runs before the blit, [post] after overlay merging. *)
let record_nt_pre t ~addr ~len =
  match t.recorder with
  | None -> ()
  | Some r ->
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      ignore (record_line t r idx)
    done

let record_nt_post t ~addr ~len =
  match t.recorder with
  | None -> ()
  | Some r ->
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      r.Record.stores <- r.Record.stores + 1;
      let rl = record_line t r idx in
      rl.Record.versions <-
        { Record.content = medium_line t idx; flushed = true }
        :: rl.Record.versions;
      if not (is_dirty_line t idx) then rl.Record.store_epoch <- -1
    done

(* A fence makes every version through the last flushed one guaranteed.
   Unflushed cached content stays pending in the new epoch: the versions
   newer than the newest flushed one, a prefix of the newest-first list. *)
let record_fence_collapse (r : Record.t) dirty_line =
  r.Record.epoch <- r.Record.epoch + 1;
  let drop = ref [] in
  Itbl.iter
    (fun idx (rl : Record.line) ->
      let rec collapse newer = function
        | [] -> ()
        | { Record.flushed = true; content } :: _ ->
          rl.Record.base <- content;
          rl.Record.versions <- List.rev newer
        | v :: older -> collapse (v :: newer) older
      in
      collapse [] rl.Record.versions;
      if rl.Record.versions = [] && not (dirty_line idx) then
        drop := idx :: !drop)
    r.Record.lines;
  List.iter (Itbl.remove r.Record.lines) !drop

let record_fence t =
  match t.recorder with
  | None -> ()
  | Some r ->
    r.Record.fences <- r.Record.fences + 1;
    (* The hook fires before the fence takes effect: a crash "at" the fence
       still sees every unfenced version as undecided. *)
    r.Record.on_fence ();
    record_fence_collapse r (is_dirty_line t)

(* Untimed raw stores (poke) and whole-overlay drops bypass the persistency
   model: forget any pending record for the covered lines. *)
let record_forget t ~addr ~len =
  match t.recorder with
  | None -> ()
  | Some r ->
    if len > 0 then begin
      let ls = line_size t in
      let first = addr / ls and last = (addr + len - 1) / ls in
      for idx = first to last do
        Itbl.remove r.Record.lines idx
      done
    end

(* --- media-fault hooks (no-ops when no fault model is attached) --- *)

(* Timed load of [addr, addr+len): lines dirty in the CPU cache are served
   from the cache and never touch the medium, so only clean lines can
   fault. Raises on the first faulting line, in address order, so a fixed
   seed and access sequence fault identically. *)
let fault_check_load t ~addr ~len =
  match t.fault with
  | None -> ()
  | Some f ->
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      if not (is_dirty_line t idx) then
        match Fault.check_load f idx with
        | None -> ()
        | Some kind ->
          let transient = kind = Fault.Transient in
          Stats.add_media_fault t.stats ~transient;
          raise (Fault.Media_error { addr = idx * ls; transient })
    done

(* A store that fully covers lines of the medium: heals poison, may draw
   store-time poison. Partially covered lines keep their fault state. *)
let fault_store_range t ~addr ~len =
  match t.fault with
  | None -> ()
  | Some f ->
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      let line_start = idx * ls in
      if addr <= line_start && line_start + ls <= addr + len then
        Fault.store_line f idx
    done

let fault_store_line t idx =
  match t.fault with None -> () | Some f -> Fault.store_line f idx

(* Untimed raw store (poke): reliable, heals fully covered lines. *)
let fault_heal_range t ~addr ~len =
  match t.fault with
  | None -> ()
  | Some f ->
    if len > 0 then begin
      let ls = line_size t in
      let first = addr / ls and last = (addr + len - 1) / ls in
      for idx = first to last do
        let line_start = idx * ls in
        if addr <= line_start && line_start + ls <= addr + len then
          Fault.heal_line f idx
      done
    end

let set_fault_model t f = t.fault <- f
let fault_model t = t.fault

(* Untimed poison inspection for scrub/fsck/recovery: byte addresses
   (ascending) of poisoned lines intersecting the range. *)
let verify_range t ~addr ~len =
  match t.fault with
  | None -> []
  | Some f ->
    if len <= 0 then []
    else begin
      check_range t ~addr ~len;
      let ls = line_size t in
      let first = addr / ls and last = (addr + len - 1) / ls in
      let acc = ref [] in
      for idx = last downto first do
        if Fault.is_poisoned f idx then acc := (idx * ls) :: !acc
      done;
      !acc
    end

(* --- timed data-path operations --- *)

(* The timed part of a load of [addr, addr+len): the access latency, then
   the fault check. The loads have happened when it returns: poisoned or
   transient-faulting lines machine-check here, after the access paid its
   latency. The caller copies with no yield after it, then counts. *)
let begin_load t ~cat ~addr ~len =
  let lines = Config.cachelines_in t.config ~addr ~len in
  sleep t cat (lines * t.config.Config.dram_read_ns);
  fault_check_load t ~addr ~len

let read t ~cat ~addr ~len ~into ~off =
  check_range t ~addr ~len;
  if off < 0 || off + len > Bytes.length into then
    invalid_arg "Device.read: destination range out of bounds";
  if len > 0 then begin
    begin_load t ~cat ~addr ~len;
    medium_read t ~addr into off len;
    (* Patch bytes whose cachelines are dirty in the CPU cache. *)
    cached_spans t Load ~addr ~len into off;
    Stats.add_nvmm_read t.stats len
  end

(* Whole lines [addr, addr+len) of a range a caller hands over by value:
   [addr] and [len] must be line-aligned, and [lines] must have a slot
   from [first] for each. *)
let check_lines t name ~addr ~len ~lines ~first =
  check_range t ~addr ~len;
  let ls = line_size t in
  if addr mod ls <> 0 || len mod ls <> 0 then
    invalid_arg (name ^ ": range not line-aligned");
  if first < 0 || first + (len / ls) > Array.length lines then
    invalid_arg (name ^ ": line slots out of bounds")

(* [read] of whole lines, by value: slot [first + i] takes line [i] of the
   range, the medium's own line (its page is shared from then on), or a
   copy of the line's dirty cached version (the overlay writes its lines
   in place). *)
let read_lines t ~cat ~addr ~len ~into ~first =
  check_lines t "Device.read_lines" ~addr ~len ~lines:into ~first;
  if len > 0 then begin
    begin_load t ~cat ~addr ~len;
    let ls = line_size t in
    let idx0 = addr / ls in
    for i = 0 to (len / ls) - 1 do
      let idx = idx0 + i in
      into.(first + i) <-
        (if is_dirty_line t idx then Bytes.copy (Itbl.get t.overlay idx)
         else begin
           share_page t (idx / t.lines_per_page);
           medium_line t idx
         end)
    done;
    Stats.add_nvmm_read t.stats len
  end

(* Bounded retry of transient media faults: up to three immediate
   retries. The final [Fault.Media_error] (poison, or retries used up)
   propagates. *)
let read_retrying t ~cat ~addr ~len ~into ~off =
  let rec go attempt =
    try read t ~cat ~addr ~len ~into ~off with
    | Fault.Media_error { transient = true; _ } when attempt < 3 ->
      Stats.add_media_retry t.stats;
      go (attempt + 1)
  in
  go 0

let read_alloc t ~cat ~addr ~len =
  let buf = Bytes.create len in
  read t ~cat ~addr ~len ~into:buf ~off:0;
  buf

(* Stream [lines] to the medium holding one of the N_w bandwidth slots;
   the wait for the slot is an [Obs] span of its own. Returns the time
   taken, wait included; the clock is read only when there is a wait. *)
let stream_lines t lines =
  let t0 = span_start () in
  let waited =
    if Resource.try_acquire t.bandwidth 1 then 0
    else begin
      let w0 = Proc.now () in
      Resource.acquire t.bandwidth 1;
      Int64.to_int (Int64.sub (Proc.now ()) w0)
    end
  in
  Obs.span_since Obs.Slot_wait ~t0;
  let ns = lines * t.config.Config.nvmm_write_ns in
  (match Proc.delay_int ns with
  | () -> Resource.release t.bandwidth 1
  | exception e ->
    Resource.release t.bandwidth 1;
    raise e);
  waited + ns

(* A store that bypasses the CPU cache: it reaches the medium and
   invalidates any stale cached copy of the lines it covers. Partially
   covered lines must merge the new bytes into the cached copy instead. *)
let nt_copy t ~addr src off len =
  medium_write t ~addr src off len;
  cached_spans t Merge_nt ~addr ~len src off

(* [nt_copy] of zeros without a source buffer: a whole page becomes the
   zero table and leaves the cache ([Merge_nt] reads no source for whole
   lines); any other segment is a line piece from the zero line. *)
let rec nt_zeros t ~addr ~len =
  let ps = page_size t and ls = line_size t in
  let n =
    if addr mod ps = 0 && len >= ps then ps
    else Int.min len (ls - (addr mod ls))
  in
  if n = ps then begin
    fill_page t (addr / ps) '\000';
    cached_spans t Merge_nt ~addr ~len:ps Bytes.empty 0
  end
  else nt_copy t ~addr t.fills.(0).(0) 0 n;
  if n < len then nt_zeros t ~addr:(addr + n) ~len:(len - n)

(* [nt_copy] of whole lines handed over by value: slot [first + i] of
   [lines] is settled, becomes the medium's line [i] of the range, and
   takes the settled value back, so the caller holds it: the page is
   shared. A whole page of one fill line becomes its fill table, with no
   table copied. Every line is whole, so [Merge_nt] drops each cached
   copy and reads no source. *)
let nt_lines t ~addr ~len lines first =
  let ps = page_size t and ls = line_size t in
  for i = first to first + (len / ls) - 1 do
    if not (is_fill_line t.fills lines.(i)) then lines.(i) <- settle t lines.(i)
  done;
  let rec page a i =
    if a < addr + len then begin
      let p = a / ps in
      let s = (a - (p * ps)) / ls in
      let k = Int.min (t.lines_per_page - s) ((addr + len - a) / ls) in
      let line = lines.(i) in
      let rec same j = j >= i + k || (lines.(j) == line && same (j + 1)) in
      if k = t.lines_per_page && is_fill_line t.fills line && same i then
        fill_page t p (Bytes.unsafe_get line 0)
      else begin
        for j = 0 to k - 1 do
          set_slot t p (s + j) lines.(i + j)
        done;
        share_page t p
      end;
      page (a + (k * ls)) (i + k)
    end
  in
  page addr first;
  cached_spans t Merge_nt ~addr ~len Bytes.empty 0

(* What a non-temporal store stores. *)
type nt_source =
  | Copy of Bytes.t * int (* the bytes from an offset *)
  | Zeros
  | Lines of Bytes.t array * int (* whole lines by value, from a slot *)

(* The one timed non-temporal store. *)
let store_nt ~background t ~cat ~addr ~len source =
  if len > 0 then begin
    let lines = Config.cachelines_in t.config ~addr ~len in
    Stats.add_time t.stats cat (stream_lines t lines);
    record_nt_pre t ~addr ~len;
    (match source with
    | Copy (src, off) -> nt_copy t ~addr src off len
    | Zeros -> nt_zeros t ~addr ~len
    | Lines (lines, first) -> nt_lines t ~addr ~len lines first);
    record_nt_post t ~addr ~len;
    fault_store_range t ~addr ~len;
    add_written t ~background len
  end

let write_nt ?(background = false) t ~cat ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  if off < 0 || off + len > Bytes.length src then
    invalid_arg "Device.write_nt: source range out of bounds";
  store_nt ~background t ~cat ~addr ~len (Copy (src, off))

let write_nt_lines ~background t ~cat ~addr ~len ~lines ~first =
  check_lines t "Device.write_nt_lines" ~addr ~len ~lines ~first;
  store_nt ~background t ~cat ~addr ~len (Lines (lines, first))

let zero_nt ?(background = false) t ~cat ~addr ~len =
  check_range t ~addr ~len;
  store_nt ~background t ~cat ~addr ~len Zeros

let write_cached t ~cat ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  if off < 0 || off + len > Bytes.length src then
    invalid_arg "Device.write_cached: source range out of bounds";
  if len > 0 then begin
    let lines = Config.cachelines_in t.config ~addr ~len in
    sleep t cat (lines * t.config.Config.dram_write_ns);
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      record_store t idx;
      let line = overlay_line t idx in
      let line_start = idx * ls in
      let copy_start = Int.max addr line_start in
      let copy_end = Int.min (addr + len) (line_start + ls) in
      Bytes.blit src
        (off + copy_start - addr)
        line (copy_start - line_start)
        (copy_end - copy_start)
    done
  end

(* The one place a cached line moves to the medium: records the flush event
   and hands the line over. Both [clflush] and [flush_all_untimed] go
   through here so timed and test-setup persistence cannot diverge. *)
let persist_line t idx =
  if is_dirty_line t idx then begin
    let line = Itbl.get t.overlay idx in
    record_flush t idx line;
    drop_overlay t idx;
    set_slot t (idx / t.lines_per_page) (idx mod t.lines_per_page)
      (settle_private t line);
    fault_store_line t idx
  end

(* Flush the dirty cachelines intersecting [addr, addr+len) to the medium.
   Clean lines only pay the instruction-issue cost. *)
let clflush ?(background = false) t ~cat ~addr ~len =
  check_range t ~addr ~len;
  if len > 0 then begin
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    let dirty = ref 0 in
    for idx = first to last do
      if is_dirty_line t idx then incr dirty
    done;
    let total_lines = last - first + 1 in
    Stats.add_clflush t.stats cat ~lines:total_lines ~dirty:!dirty;
    let t0 = span_start () in
    let issue = total_lines * t.config.Config.clflush_issue_ns in
    Proc.delay_int issue;
    let streamed = if !dirty > 0 then stream_lines t !dirty else 0 in
    Stats.add_time t.stats cat (issue + streamed);
    Obs.span_since Obs.Flush ~t0;
    for idx = first to last do
      persist_line t idx
    done;
    if !dirty > 0 then
      add_written t ~background (!dirty * ls)
  end

let mfence t ~cat =
  Stats.add_mfence t.stats cat;
  let t0 = span_start () in
  sleep t cat t.config.Config.mfence_ns;
  Obs.span_since Obs.Fence ~t0;
  record_fence t

(* --- small typed accessors (metadata fields) --- *)

(* Loads of metadata words are not individually timed: they are cache-hot
   DRAM-speed accesses whose cost the paper folds into "Others" (which we
   charge per syscall). Stores go through the cached-write path so that
   crash semantics remain exact. *)

let peek t ~addr ~len =
  check_range t ~addr ~len;
  let buf = Bytes.create len in
  if len > 0 then medium_read t ~addr buf 0 len;
  cached_spans t Load ~addr ~len buf 0;
  buf

let peek_persistent t ~addr ~len =
  check_range t ~addr ~len;
  let buf = Bytes.create len in
  if len > 0 then medium_read t ~addr buf 0 len;
  buf

(* Records of [size] bytes from [addr] on, visited in place: per page one
   table lookup, and an overlay probe per line only when the page has
   dirty lines (never in the persistent view). A record crossing a line
   is copied out through [peek]. *)
let walk_records t ~persistent ~addr ~len ~size f =
  check_range t ~addr ~len;
  if size <= 0 then invalid_arg "Device.walk_records: size must be positive";
  let ls = line_size t and ps = page_size t in
  let last = addr + len - size in
  let rec page a =
    a > last
    ||
    let p = a / ps in
    let tbl = t.pages.(p) in
    let probe = (not persistent) && Bytes.get_uint8 t.dirty_in_page p > 0 in
    let first_line = p * t.lines_per_page in
    let rec record a =
      if a > last then true
      else if a / ps <> p then page a
      else
        let lo = a land (ls - 1) in
        let more =
          if lo + size > ls then
            f
              ((if persistent then peek_persistent else peek) t ~addr:a
                 ~len:size)
              0
          else
            let idx = a / ls in
            let line =
              let line =
                if probe then Itbl.get t.overlay idx else Bytes.empty
              in
              if line != Bytes.empty then line else tbl.(idx - first_line)
            in
            f line lo
        in
        more && record (a + size)
    in
    record a
  in
  page addr

(* Untimed raw store, for mkfs-time initialisation and tests. Writes the
   medium directly and drops any cached copy. *)
let poke t ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  record_forget t ~addr ~len;
  fault_heal_range t ~addr ~len;
  if len > 0 then medium_write t ~addr src off len;
  cached_spans t Merge ~addr ~len src off

(* Untimed recorded store for recovery/repair paths. Like [poke] it is the
   reliable path — reaches the medium directly, heals fully covered poisoned
   lines, never draws new faults — but the persistence recorder sees it as a
   flushed-but-unfenced version (exactly a non-temporal store minus the
   timing), so crash enumeration *during* recovery observes what replay and
   scrub persist. Equivalent to [poke] when recording is off, except that
   pending records for the covered lines are kept, not forgotten. *)
let poke_flushed t ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  if len > 0 then begin
    record_nt_pre t ~addr ~len;
    nt_copy t ~addr src off len;
    record_nt_post t ~addr ~len;
    fault_heal_range t ~addr ~len
  end

(* Untimed ordering point pairing with [poke_flushed]: fires the recorder's
   fence (running the on_fence hook, then collapsing flushed versions into
   the guaranteed base) without charging time or stats. No-op when recording
   is off. *)
let fence_untimed t = record_fence t

(* A metadata word of [n] bytes, read in place: from its dirty cacheline
   when there is one, else from the medium line. A word straddling two
   cachelines goes through [peek]. *)
let get_word t addr n get =
  check_range t ~addr ~len:n;
  let ls = line_size t in
  let lo = addr land (ls - 1) in
  if lo + n > ls then get (peek t ~addr ~len:n) 0
  else
    let idx = addr / ls in
    if is_dirty_line t idx then get (Itbl.get t.overlay idx) lo
    else get (medium_line t idx) lo

let get_u8 t addr = get_word t addr 1 Bytes.get_uint8
let get_u16 t addr = get_word t addr 2 Bytes.get_uint16_le

let get_u32 t addr =
  get_word t addr 4 (fun b o ->
      Int32.to_int (Bytes.get_int32_le b o) land 0xFFFFFFFF)

let get_u64 t addr = get_word t addr 8 Bytes.get_int64_le

let set_bytes t ~cat ~addr bytes =
  write_cached t ~cat ~addr ~src:bytes ~off:0 ~len:(Bytes.length bytes)

let set_word n set t ~cat addr v =
  let b = Bytes.create n in
  set b 0 v;
  set_bytes t ~cat ~addr b

let set_u8 = set_word 1 Bytes.set_uint8
let set_u16 = set_word 2 Bytes.set_uint16_le
let set_u32 = set_word 4 (fun b o v -> Bytes.set_int32_le b o (Int32.of_int v))
let set_u64 = set_word 8 Bytes.set_int64_le

(* --- crash injection --- *)

let crash t =
  Itbl.clear t.overlay;
  Bytes.fill t.dirty_in_page 0 (Bytes.length t.dirty_in_page) '\000';
  t.dirty_lines <- 0;
  match t.recorder with
  | None -> ()
  | Some r -> Itbl.clear r.Record.lines

(* The persistent medium as an image (what a crash would leave). The
   device hands its tables to the image and owns none of them afterwards,
   so its next write to a page copies its table. *)
let snapshot t =
  Bytes.fill t.owned 0 (Bytes.length t.owned) '\000';
  { img_pages = Array.copy t.pages; img_fills = t.fills }

(* A fresh device initialised from a snapshot: used by crash-consistency
   tests to mount and inspect the post-crash image while the pre-crash
   simulation keeps running. *)
let of_snapshot engine stats config image =
  let config = Config.validate config in
  let zero = image.img_fills.(0) in
  if
    Array.length zero <> Config.cachelines_per_block config
    || Bytes.length zero.(0) <> config.Config.cacheline_size
    || Array.length image.img_pages <> Config.blocks config
  then invalid_arg "Device.of_snapshot: image size mismatch";
  of_pages engine stats config ~fills:image.img_fills
    (Array.copy image.img_pages)

let image_to_bytes image =
  Bytes.concat Bytes.empty
    (List.concat_map Array.to_list (Array.to_list image.img_pages))

(* Digest of the image contents: equal contents, equal digests. Hashes
   the per-page digests, each of the page's bytes. The pages an image
   holds more than once are its fill tables; each is digested once. *)
let image_digest image =
  let memo = Array.make 256 "" in
  let flat tbl = Digest.bytes (Bytes.concat Bytes.empty (Array.to_list tbl)) in
  let page_digest tbl =
    if not (is_fill image.img_fills tbl) then flat tbl
    else begin
      let c = Char.code (Bytes.unsafe_get tbl.(0) 0) in
      if memo.(c) = "" then memo.(c) <- flat tbl;
      memo.(c)
    end
  in
  let b = Buffer.create (16 * Array.length image.img_pages) in
  Array.iter
    (fun tbl -> Buffer.add_string b (page_digest tbl))
    image.img_pages;
  Digest.string (Buffer.contents b)

(* Test/setup helper: persist every dirty line through the same path as
   [clflush], then make the result guaranteed (flush-all acts as flush +
   fence, minus the timing and the fence hook). *)
let flush_all_untimed t =
  Itbl.fold (fun idx _ acc -> idx :: acc) t.overlay []
  |> List.sort compare
  |> List.iter (fun idx -> persist_line t idx);
  match t.recorder with
  | None -> ()
  | Some r -> record_fence_collapse r (fun _ -> false)

(* --- persistence-event recording & crash-state capture --- *)

(* A recorder holds medium lines, and may hand them to crash states: no
   page stays [private_] across one. *)
let share_all_pages t =
  for p = 0 to Bytes.length t.owned - 1 do
    share_page t p
  done

let enable_recording t =
  flush_all_untimed t;
  share_all_pages t;
  t.recorder <- Some (Record.create ())

let disable_recording t =
  share_all_pages t;
  t.recorder <- None
let recording t = t.recorder <> None

let set_on_fence t f =
  match t.recorder with
  | None -> invalid_arg "Device.set_on_fence: recording disabled"
  | Some r -> r.Record.on_fence <- f

let recorded_events t =
  match t.recorder with
  | None -> (0, 0, 0)
  | Some r -> (r.Record.stores, r.Record.flushes, r.Record.fences)

(* Number of lines whose crash content is currently undecided. *)
let pending_choice_lines t =
  let recorded =
    match t.recorder with
    | None -> 0
    | Some r -> Itbl.length r.Record.lines
  in
  let dirty_unrecorded =
    Itbl.fold
      (fun idx _ acc ->
        match t.recorder with
        | Some r when Itbl.mem r.Record.lines idx -> acc
        | _ -> acc + 1)
      t.overlay 0
  in
  recorded + dirty_unrecorded

let dedup_candidates cands =
  List.fold_left
    (fun acc c -> if List.exists (Bytes.equal c) acc then acc else c :: acc)
    [] cands
  |> List.rev

(* Cap pathologically long candidate chains (many epochs of stores to one
   line with no flush): keep the guaranteed content plus the newest few. *)
let max_candidates = 8

let capture_crash_state ?(label = "crash") t =
  let ls = line_size t in
  let choice idx (rl : Record.line option) =
    let cands =
      match rl with
      | Some rl ->
        rl.Record.base
        :: List.rev_map (fun v -> v.Record.content) rl.Record.versions
      | None -> [ medium_line t idx ]
    in
    let cands =
      let line = Itbl.get t.overlay idx in
      if line != Bytes.empty then cands @ [ Bytes.copy line ] else cands
    in
    let cands = dedup_candidates cands in
    let cands =
      if List.length cands <= max_candidates then cands
      else
        List.hd cands
        :: (List.filteri
              (fun i _ -> i >= List.length cands - (max_candidates - 1))
              (List.tl cands))
    in
    match cands with
    | [] | [ _ ] -> None
    | _ -> Some (idx, Array.of_list cands)
  in
  let choices = ref [] in
  (match t.recorder with
  | None -> ()
  | Some r ->
    Itbl.iter
      (fun idx rl ->
        match choice idx (Some rl) with
        | None -> ()
        | Some c -> choices := c :: !choices)
      r.Record.lines);
  Itbl.iter
    (fun idx _ ->
      let recorded =
        match t.recorder with
        | Some r -> Itbl.mem r.Record.lines idx
        | None -> false
      in
      if not recorded then
        match choice idx None with
        | None -> ()
        | Some c -> choices := c :: !choices)
    t.overlay;
  {
    cs_label = label;
    cs_image = snapshot t;
    cs_line_size = ls;
    cs_choices = List.sort (fun (a, _) (b, _) -> compare a b) !choices;
  }

(* Concrete crash image: the guaranteed medium with [choice.(i)] picking
   the persisted candidate for the i-th undecided line. It shares every
   table of the state's image except those holding an undecided line,
   which it copies once, pointing the line's slot at the candidate. *)
let materialize_crash_image state ~choice =
  let base = state.cs_image in
  let pages = Array.copy base.img_pages in
  let lpp = Array.length base.img_fills.(0) in
  List.iteri
    (fun i (idx, cands) ->
      let p = idx / lpp in
      if pages.(p) == base.img_pages.(p) then
        pages.(p) <- Array.copy pages.(p);
      pages.(p).(idx mod lpp) <- cands.(choice.(i)))
    state.cs_choices;
  { base with img_pages = pages }
