(* OS page cache (buffer cache) over a block device.

   This is what the EXT2/EXT4+NVMMBD baselines pay for: every cached read
   is fetched from the device into a page first (one copy through the block
   layer) and then copied to the user buffer (second copy); writes are
   copied into pages and written back later. The paper's point is that on
   NVMM these double copies and the block-layer software overhead can
   swallow the benefit of DRAM buffering (§2, Fig. 3a).

   Pages are keyed by device block number (buffer-head style). Eviction is
   LRU, preferring clean pages; evicting a dirty page pays a foreground
   writeback. A pdflush-like daemon writes dirty pages back periodically
   and when the dirty ratio crosses a threshold. *)

module Proc = Hinfs_sim.Proc
module Engine = Hinfs_sim.Engine
module Condvar = Hinfs_sim.Condvar
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Blockdev = Hinfs_blockdev.Blockdev
module Lru = Hinfs_structures.Lru

type page = {
  block : int;
  data : Bytes.t;
  mutable valid : bool; (* fetch completed; concurrent getters poll this *)
  mutable writing : bool; (* device write in flight *)
  mutable dirty : bool;
  mutable pinned : int; (* >0: not evictable (in use / journaled) *)
  mutable dirtied_at : int64;
  (* Dirty byte run since the page was last clean ([d_min >= d_max] when
     clean). Writeback passes it down so a logging tier can absorb a
     sub-block record instead of the whole page. *)
  mutable d_min : int;
  mutable d_max : int;
}

type t = {
  bdev : Blockdev.t;
  capacity : int; (* max pages *)
  pages : (int, page) Lru.t;
  mutable dirty_count : int;
  flusher_wakeup : Condvar.t;
  mutable flusher_running : bool;
  mutable stop_flusher : bool;
  (* statistics *)
  mutable hits : int;
  mutable misses : int;
  mutable foreground_writebacks : int;
}

(* pdflush-like defaults: periodic writeback every 5 s, the flusher woken
   above 20% dirty pages and cleaning down to 10%. *)
let flush_interval_ns = 5_000_000_000L
let dirty_ratio = 0.2
let dirty_background_ratio = 0.1

let create bdev ~capacity_pages =
  if capacity_pages < 8 then
    invalid_arg "Pagecache.create: capacity too small";
  {
    bdev;
    capacity = capacity_pages;
    pages = Lru.create ~initial_size:1024 ();
    dirty_count = 0;
    flusher_wakeup = Condvar.create (Device.engine (Blockdev.device bdev));
    flusher_running = false;
    stop_flusher = false;
    hits = 0;
    misses = 0;
    foreground_writebacks = 0;
  }

let block_size t = Blockdev.block_size t.bdev
let cached_pages t = Lru.length t.pages
let dirty_pages t = t.dirty_count
let misses t = t.misses
let foreground_writebacks t = t.foreground_writebacks

let mark_clean t page =
  if page.dirty then begin
    page.dirty <- false;
    page.d_min <- Bytes.length page.data;
    page.d_max <- 0;
    t.dirty_count <- t.dirty_count - 1
  end

let extend_dirty page ~off ~len =
  if off < page.d_min then page.d_min <- off;
  if off + len > page.d_max then page.d_max <- off + len

let dirty_hint t page =
  if page.d_min <= 0 && page.d_max >= block_size t then None
  else if page.d_min < page.d_max then Some (page.d_min, page.d_max - page.d_min)
  else None

let mark_dirty t page =
  if not page.dirty then begin
    page.dirty <- true;
    page.dirtied_at <- Engine.now (Device.engine (Blockdev.device t.bdev));
    t.dirty_count <- t.dirty_count + 1;
    if
      t.flusher_running
      && float_of_int t.dirty_count
         > dirty_ratio *. float_of_int t.capacity
    then ignore (Condvar.signal t.flusher_wakeup)
  end

let writeback_page ?(background = false) t ~cat page =
  if page.dirty then begin
    (* Pin across the (yielding) device write so the page cannot be evicted,
       and flag the in-flight write so invalidation can wait it out. *)
    page.pinned <- page.pinned + 1;
    page.writing <- true;
    Fun.protect
      ~finally:(fun () ->
        page.writing <- false;
        page.pinned <- page.pinned - 1)
      (fun () ->
        Blockdev.write_block ~background ?dirty:(dirty_hint t page) t.bdev
          ~cat page.block ~src:page.data ~off:0);
    mark_clean t page
  end

(* Make room for one more page: evict the least-recent unpinned page,
   preferring clean ones; fall back to a foreground writeback. *)
let rec make_room t ~cat =
  if Lru.length t.pages >= t.capacity then begin
    match Lru.find_lru_matching t.pages (fun _ p -> p.pinned = 0 && not p.dirty)
    with
    | Some (block, _page) ->
      ignore (Lru.remove t.pages block);
      make_room t ~cat
    | None -> (
      match Lru.find_lru_matching t.pages (fun _ p -> p.pinned = 0) with
      | Some (block, page) ->
        t.foreground_writebacks <- t.foreground_writebacks + 1;
        (* Pin across the (yielding) writeback: a concurrent process may
           re-acquire this page meanwhile; only evict if it came back
           unpinned and still clean. *)
        page.pinned <- page.pinned + 1;
        writeback_page t ~cat page;
        page.pinned <- page.pinned - 1;
        if page.pinned = 0 && not page.dirty then
          ignore (Lru.remove t.pages block);
        make_room t ~cat
      | None ->
        (* Everything is pinned: the cache is undersized for the working
           set of pinned pages. *)
        invalid_arg "Pagecache: all pages pinned, cannot evict")
  end

(* Get the page for [block], fetching it from the device on a miss. The
   page is returned pinned; the caller must [unpin]. *)
let get_page ?(fetch = true) t ~cat block =
  match Lru.find t.pages block with
  | Some page ->
    t.hits <- t.hits + 1;
    page.pinned <- page.pinned + 1;
    ignore (Lru.touch t.pages block);
    (* Another process may still be fetching this page: wait for the data
       to be valid before exposing it. *)
    while not page.valid do
      Proc.delay 200L
    done;
    page
  | None ->
    t.misses <- t.misses + 1;
    make_room t ~cat;
    let data = Bytes.make (block_size t) '\000' in
    let page =
      {
        block;
        data;
        valid = false;
        writing = false;
        dirty = false;
        pinned = 1;
        dirtied_at = 0L;
        d_min = block_size t;
        d_max = 0;
      }
    in
    (* Insert before fetching (the fetch yields) so concurrent getters
       share this page object instead of fetching their own copy; they
       poll [valid] above. The page is pinned, so it cannot be evicted
       while the fetch is in flight. *)
    Lru.add t.pages block page;
    (* A faulting fetch (media error) must not leave the never-valid page
       in the cache: concurrent getters would poll [valid] forever. Drop
       it and re-raise; a later retry fetches afresh. *)
    (try if fetch then Blockdev.read_block t.bdev ~cat block ~into:data ~off:0
     with e ->
       page.pinned <- 0;
       ignore (Lru.remove t.pages block);
       raise e);
    page.valid <- true;
    page

let unpin page =
  if page.pinned <= 0 then invalid_arg "Pagecache.unpin: not pinned";
  page.pinned <- page.pinned - 1

let pin page = page.pinned <- page.pinned + 1

(* Copy out of the cache into a user buffer (second copy of the read
   path). *)
let read t ~cat ~block ~off ~len ~into ~into_off =
  if off < 0 || len < 0 || off + len > block_size t then
    invalid_arg "Pagecache.read: bad range";
  let page = get_page t ~cat block in
  Fun.protect
    ~finally:(fun () -> unpin page)
    (fun () ->
      Device.charge_memcpy (Blockdev.device t.bdev) cat `Write len;
      Bytes.blit page.data off into into_off len)

(* Copy from a user buffer into the cache (first copy of the write path).
   A partial write to an uncached block fetches it first
   (fetch-before-write); a full-block write can skip the fetch. *)
let write t ~cat ~block ~off ~src ~src_off ~len =
  if off < 0 || len < 0 || off + len > block_size t then
    invalid_arg "Pagecache.write: bad range";
  let full = off = 0 && len = block_size t in
  let page = get_page ~fetch:(not full) t ~cat block in
  Fun.protect
    ~finally:(fun () -> unpin page)
    (fun () ->
      Device.charge_memcpy (Blockdev.device t.bdev) cat `Write len;
      Bytes.blit src src_off page.data off len;
      extend_dirty page ~off ~len;
      mark_dirty t page)

(* In-place read-modify-write of a cached block (metadata update). [f] must
   not yield. *)
let modify t ~cat ~block f =
  let page = get_page t ~cat block in
  Fun.protect
    ~finally:(fun () -> unpin page)
    (fun () ->
      let result = f page.data in
      (* [f] may have touched anything: the whole block is the dirty run. *)
      extend_dirty page ~off:0 ~len:(block_size t);
      mark_dirty t page;
      result)

(* Read-only access to a cached block's bytes. [f] must not yield. *)
let with_page t ~cat ~block f =
  let page = get_page t ~cat block in
  Fun.protect ~finally:(fun () -> unpin page) (fun () -> f page.data)

(* Zero-initialise a block in cache without fetching (fresh allocation). *)
let zero_block t ~cat ~block =
  let page = get_page ~fetch:false t ~cat block in
  Fun.protect
    ~finally:(fun () -> unpin page)
    (fun () ->
      Bytes.fill page.data 0 (block_size t) '\000';
      extend_dirty page ~off:0 ~len:(block_size t);
      mark_dirty t page)

(* Look up a cached page without fetching. *)
let find t block = Lru.find t.pages block

let flush_block ?background t ~cat block =
  match Lru.find t.pages block with
  | None -> ()
  | Some page -> writeback_page ?background t ~cat page

let flush_blocks ?background t ~cat blocks =
  List.iter (fun b -> flush_block ?background t ~cat b) blocks

let flush_all ?background t ~cat =
  let dirty = ref [] in
  Lru.iter t.pages (fun _ page -> if page.dirty then dirty := page :: !dirty);
  List.iter (fun page -> writeback_page ?background t ~cat page) !dirty

(* Drop a block from the cache without writing it back (its file was
   deleted). Waits out in-flight device writes only — an in-flight
   writeback must not land after the block is freed and reallocated.
   Longer-lived pins (journaled metadata) are fine to drop: the caller is
   responsible for forgetting the block from its journal first. *)
let invalidate t block =
  (match Lru.find t.pages block with
  | Some page ->
    while page.writing do
      Proc.delay 500L
    done;
    mark_clean t page;
    ignore (Lru.remove t.pages block)
  | None -> ());
  ()

(* pdflush-like daemon: periodic writeback plus dirty-ratio response. *)
let start_flusher t =
  if t.flusher_running then invalid_arg "Pagecache: flusher already running";
  t.flusher_running <- true;
  Proc.spawn ~name:"pdflush" (fun () ->
      let rec loop () =
        if not t.stop_flusher then begin
          ignore (Condvar.wait_timeout t.flusher_wakeup ~timeout:flush_interval_ns);
          if not t.stop_flusher then begin
            let target =
              int_of_float (dirty_background_ratio *. float_of_int t.capacity)
            in
            (* Oldest-dirtied first. *)
            let dirty = ref [] in
            Lru.iter t.pages (fun _ page ->
                if page.dirty then dirty := page :: !dirty);
            let ordered =
              List.sort (fun a b -> Int64.compare a.dirtied_at b.dirtied_at)
                !dirty
            in
            let rec clean pages =
              match pages with
              | [] -> ()
              | page :: rest ->
                if t.dirty_count > target then begin
                  writeback_page ~background:true t ~cat:Stats.Other page;
                  clean rest
                end
            in
            clean ordered;
            loop ()
          end
        end
      in
      loop ())

let stop_flusher t =
  t.stop_flusher <- true;
  ignore (Condvar.broadcast t.flusher_wakeup)
