(* Byte-addressable NVMM device with an explicit CPU-cache model.

   Two layers of state:
   - [persistent]: the NVMM medium itself; survives [crash].
   - [overlay]: cachelines currently dirty in the (volatile) CPU cache.
     Ordinary stores ([write_cached], [set_u*]) land here and are lost on
     [crash] until [clflush]ed. Non-temporal stores ([write_nt]) bypass the
     cache and reach the medium directly, like movnti/clwb streaming copies
     (PMFS's copy_from_user_inatomic_nocache data path).

   Timing: loads cost DRAM speed (the paper assumes symmetric reads); every
   cacheline stored to the medium costs [nvmm_write_ns] and must hold one of
   the N_w bandwidth slots while it streams, reproducing the paper's
   bandwidth emulator. Waiting for a slot is charged to the caller's stats
   category, because that is exactly the foreground/background interference
   the paper discusses (§3.2.1). *)

(* Persistence-event recorder (off by default, zero cost when disabled).

   Under the x86 persistency model a store is volatile until its line is
   flushed, and a flush only becomes *ordered* at the next mfence: a crash
   may persist any subset of the not-yet-fenced line versions, while
   everything fenced is guaranteed on the medium. The recorder keeps, per
   cacheline, the set of contents the medium may legally hold at a crash:

   - [base]: the guaranteed content — last fenced version (or the medium
     content when the line first became pending);
   - [versions]: newer candidate contents, oldest first. A [clflush] pushes
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
    mutable versions : version list; (* oldest first *)
    mutable store_epoch : int; (* epoch of last store while dirty; -1 clean *)
  }

  type t = {
    mutable epoch : int; (* fences seen since recording was enabled *)
    lines : (int, line) Hashtbl.t; (* cacheline index -> pending record *)
    mutable stores : int;
    mutable flushes : int;
    mutable fences : int;
    mutable on_fence : unit -> unit;
  }

  let create () =
    {
      epoch = 0;
      lines = Hashtbl.create 256;
      stores = 0;
      flushes = 0;
      fences = 0;
      on_fence = (fun () -> ());
    }
end

type t = {
  engine : Hinfs_sim.Engine.t;
  stats : Hinfs_stats.Stats.t;
  config : Config.t;
  persistent : Bytes.t;
  overlay : (int, Bytes.t) Hashtbl.t; (* cacheline index -> line content *)
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
  cs_image : Bytes.t; (* guaranteed medium content *)
  cs_line_size : int;
  cs_choices : (int * Bytes.t array) list; (* line idx (ascending) -> candidates *)
}

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Resource = Hinfs_sim.Resource
module Stats = Hinfs_stats.Stats
module Obs = Hinfs_obs.Obs

let create engine stats config =
  let config = Config.validate config in
  {
    engine;
    stats;
    config;
    persistent = Bytes.make config.Config.nvmm_size '\000';
    overlay = Hashtbl.create 4096;
    bandwidth =
      Resource.create ~name:"nvmm-write-bandwidth"
        ~capacity:(Config.nw_slots config);
    recorder = None;
    fault = None;
  }

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

let charge t cat f =
  let t0 = Proc.now () in
  let result = f () in
  Stats.add_time t.stats cat (Int64.sub (Proc.now ()) t0);
  result

(* --- volatile overlay helpers --- *)

let overlay_line t idx =
  match Hashtbl.find_opt t.overlay idx with
  | Some line -> line
  | None ->
    let line = Bytes.create (line_size t) in
    Bytes.blit t.persistent (idx * line_size t) line 0 (line_size t);
    Hashtbl.replace t.overlay idx line;
    line

let dirty_cachelines t = Hashtbl.length t.overlay

let is_dirty_line t idx = Hashtbl.mem t.overlay idx

(* The one loop over the cached lines a byte range [addr, addr+len)
   touches, each clipped to the range; [buf] holds the range from [off].
   [Load] copies the cached bytes into [buf] (a load sees a dirty line in
   the CPU cache, not the stale medium); [Merge] copies [buf] into the
   cached copies of the lines a store covers; [Merge_nt] does the same but
   drops fully covered lines from the cache instead. A variant rather than
   a callback, so the load and store paths allocate no closure. *)
type span_op = Load | Merge | Merge_nt

let cached_spans t op ~addr ~len buf off =
  if len > 0 then begin
    let ls = line_size t in
    for idx = addr / ls to (addr + len - 1) / ls do
      if is_dirty_line t idx then begin
        let line = Hashtbl.find t.overlay idx in
        let line_start = idx * ls in
        let copy_start = max addr line_start in
        let n = min (addr + len) (line_start + ls) - copy_start in
        let line_off = copy_start - line_start in
        let buf_off = off + copy_start - addr in
        match op with
        | Load -> Bytes.blit line line_off buf buf_off n
        | Merge_nt when n = ls -> Hashtbl.remove t.overlay idx
        | Merge | Merge_nt -> Bytes.blit buf buf_off line line_off n
      end
    done
  end

let dirty_line_addrs t =
  let ls = line_size t in
  Hashtbl.fold (fun idx _ acc -> (idx * ls) :: acc) t.overlay []
  |> List.sort compare

(* --- recorder hooks (no-ops when recording is disabled) --- *)

let record_line t (r : Record.t) idx =
  match Hashtbl.find_opt r.Record.lines idx with
  | Some rl -> rl
  | None ->
    let ls = line_size t in
    let rl =
      {
        Record.base = Bytes.sub t.persistent (idx * ls) ls;
        versions = [];
        store_epoch = -1;
      }
    in
    Hashtbl.replace r.Record.lines idx rl;
    rl

(* Called BEFORE the store mutates the overlay line: if the line is dirty
   from an earlier epoch, the pre-store cached content is itself a legal
   crash candidate (it could have been evicted before this store). *)
let record_store t idx =
  match t.recorder with
  | None -> ()
  | Some r ->
    r.Record.stores <- r.Record.stores + 1;
    let rl = record_line t r idx in
    (match Hashtbl.find_opt t.overlay idx with
    | Some line
      when rl.Record.store_epoch >= 0 && rl.Record.store_epoch < r.Record.epoch
      ->
      rl.Record.versions <-
        rl.Record.versions
        @ [ { Record.content = Bytes.copy line; flushed = false } ]
    | _ -> ());
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
      rl.Record.versions
      @ [ { Record.content = Bytes.copy content; flushed = true } ];
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
        rl.Record.versions
        @ [
            {
              Record.content = Bytes.sub t.persistent (idx * ls) ls;
              flushed = true;
            };
          ];
      if not (is_dirty_line t idx) then rl.Record.store_epoch <- -1
    done

(* A fence makes every version through the last flushed one guaranteed.
   Unflushed cached content stays pending in the new epoch. *)
let record_fence_collapse (r : Record.t) dirty_line =
  r.Record.epoch <- r.Record.epoch + 1;
  let drop = ref [] in
  Hashtbl.iter
    (fun idx (rl : Record.line) ->
      let rec split acc base = function
        | [] -> (base, List.rev acc)
        | ({ Record.flushed; content } as v) :: rest ->
          if flushed then split [] (Some content) rest
          else split (v :: acc) base rest
      in
      (match split [] None rl.Record.versions with
      | None, _ -> ()
      | Some content, keep ->
        rl.Record.base <- content;
        rl.Record.versions <- keep);
      if rl.Record.versions = [] && not (dirty_line idx) then
        drop := idx :: !drop)
    r.Record.lines;
  List.iter (Hashtbl.remove r.Record.lines) !drop

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
        Hashtbl.remove r.Record.lines idx
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

let read t ~cat ~addr ~len ~into ~off =
  check_range t ~addr ~len;
  if off < 0 || off + len > Bytes.length into then
    invalid_arg "Device.read: destination range out of bounds";
  if len > 0 then begin
    let lines = Config.cachelines_in t.config ~addr ~len in
    charge t cat (fun () ->
        Proc.delay_int (lines * t.config.Config.dram_read_ns));
    (* The loads have happened: poisoned/transient-faulting lines machine-
       check here, after the access paid its latency. *)
    fault_check_load t ~addr ~len;
    Bytes.blit t.persistent addr into off len;
    (* Patch bytes whose cachelines are dirty in the CPU cache. *)
    cached_spans t Load ~addr ~len into off;
    Stats.add_nvmm_read t.stats len
  end

let read_alloc t ~cat ~addr ~len =
  let buf = Bytes.create len in
  read t ~cat ~addr ~len ~into:buf ~off:0;
  buf

let write_nt ?(background = false) t ~cat ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  if off < 0 || off + len > Bytes.length src then
    invalid_arg "Device.write_nt: source range out of bounds";
  if len > 0 then begin
    let lines = Config.cachelines_in t.config ~addr ~len in
    charge t cat (fun () ->
        let t0 = if Obs.enabled () then Proc.now () else 0L in
        Resource.with_resource t.bandwidth 1 (fun () ->
            Obs.span_since Obs.Slot_wait ~t0;
            Proc.delay_int (lines * t.config.Config.nvmm_write_ns)));
    record_nt_pre t ~addr ~len;
    Bytes.blit src off t.persistent addr len;
    (* A non-temporal store invalidates any stale cached copy of the lines
       it covers (it fully bypasses the cache hierarchy). Partially covered
       lines must merge the new bytes into the cached copy instead. *)
    cached_spans t Merge_nt ~addr ~len src off;
    record_nt_post t ~addr ~len;
    fault_store_range t ~addr ~len;
    Stats.add_nvmm_written ~background t.stats len
  end

let write_cached t ~cat ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  if off < 0 || off + len > Bytes.length src then
    invalid_arg "Device.write_cached: source range out of bounds";
  if len > 0 then begin
    let lines = Config.cachelines_in t.config ~addr ~len in
    charge t cat (fun () ->
        Proc.delay_int (lines * t.config.Config.dram_write_ns));
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      record_store t idx;
      let line = overlay_line t idx in
      let line_start = idx * ls in
      let copy_start = max addr line_start in
      let copy_end = min (addr + len) (line_start + ls) in
      Bytes.blit src
        (off + copy_start - addr)
        line (copy_start - line_start)
        (copy_end - copy_start)
    done
  end

(* The one place a cached line moves to the medium: records the flush event
   and writes the line back. Both [clflush] and [flush_all_untimed] go
   through here so timed and test-setup persistence cannot diverge. *)
let persist_line t idx =
  match Hashtbl.find_opt t.overlay idx with
  | None -> ()
  | Some line ->
    record_flush t idx line;
    Bytes.blit line 0 t.persistent (idx * line_size t) (line_size t);
    Hashtbl.remove t.overlay idx;
    fault_store_line t idx

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
    let obs_t0 = if Obs.enabled () then Proc.now () else 0L in
    charge t cat (fun () ->
        Proc.delay_int (total_lines * t.config.Config.clflush_issue_ns);
        if !dirty > 0 then begin
          let t0 = if Obs.enabled () then Proc.now () else 0L in
          Resource.with_resource t.bandwidth 1 (fun () ->
              Obs.span_since Obs.Slot_wait ~t0;
              Proc.delay_int (!dirty * t.config.Config.nvmm_write_ns))
        end);
    Obs.span_since Obs.Flush ~t0:obs_t0;
    for idx = first to last do
      persist_line t idx
    done;
    if !dirty > 0 then
      Stats.add_nvmm_written ~background t.stats (!dirty * ls)
  end

let mfence t ~cat =
  Stats.add_mfence t.stats cat;
  let obs_t0 = if Obs.enabled () then Proc.now () else 0L in
  charge t cat (fun () -> Proc.delay_int t.config.Config.mfence_ns);
  Obs.span_since Obs.Fence ~t0:obs_t0;
  record_fence t

(* --- small typed accessors (metadata fields) --- *)

(* Loads of metadata words are not individually timed: they are cache-hot
   DRAM-speed accesses whose cost the paper folds into "Others" (which we
   charge per syscall). Stores go through the cached-write path so that
   crash semantics remain exact. *)

let peek_byte t addr =
  let ls = line_size t in
  match Hashtbl.find_opt t.overlay (addr / ls) with
  | Some line -> Bytes.get_uint8 line (addr mod ls)
  | None -> Bytes.get_uint8 t.persistent addr

let peek t ~addr ~len =
  check_range t ~addr ~len;
  let buf = Bytes.create len in
  Bytes.blit t.persistent addr buf 0 len;
  cached_spans t Load ~addr ~len buf 0;
  buf

let peek_persistent t ~addr ~len =
  check_range t ~addr ~len;
  Bytes.sub t.persistent addr len

(* Untimed raw store, for mkfs-time initialisation and tests. Writes the
   medium directly and drops any cached copy. *)
let poke t ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  record_forget t ~addr ~len;
  fault_heal_range t ~addr ~len;
  Bytes.blit src off t.persistent addr len;
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
    Bytes.blit src off t.persistent addr len;
    (* Same cache rule as [write_nt]: fully covered cached lines are
       invalidated, partially covered ones merge the new bytes. *)
    cached_spans t Merge_nt ~addr ~len src off;
    record_nt_post t ~addr ~len;
    fault_heal_range t ~addr ~len
  end

(* Untimed ordering point pairing with [poke_flushed]: fires the recorder's
   fence (running the on_fence hook, then collapsing flushed versions into
   the guaranteed base) without charging time or stats. No-op when recording
   is off. *)
let fence_untimed t = record_fence t

let get_u8 t addr = peek_byte t addr

let get_u16 t addr = Bytes.get_uint16_le (peek t ~addr ~len:2) 0
let get_u32 t addr = Int32.to_int (Bytes.get_int32_le (peek t ~addr ~len:4) 0) land 0xFFFFFFFF
let get_u64 t addr = Bytes.get_int64_le (peek t ~addr ~len:8) 0
let get_int t addr = Int64.to_int (get_u64 t addr)

let set_bytes t ~cat ~addr bytes =
  write_cached t ~cat ~addr ~src:bytes ~off:0 ~len:(Bytes.length bytes)

let set_u8 t ~cat addr v =
  let b = Bytes.create 1 in
  Bytes.set_uint8 b 0 v;
  set_bytes t ~cat ~addr b

let set_u16 t ~cat addr v =
  let b = Bytes.create 2 in
  Bytes.set_uint16_le b 0 v;
  set_bytes t ~cat ~addr b

let set_u32 t ~cat addr v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  set_bytes t ~cat ~addr b

let set_u64 t ~cat addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  set_bytes t ~cat ~addr b

let set_int t ~cat addr v = set_u64 t ~cat addr (Int64.of_int v)

(* --- crash injection --- *)

let crash t =
  Hashtbl.reset t.overlay;
  match t.recorder with
  | None -> ()
  | Some r -> Hashtbl.reset r.Record.lines

(* Copy of the persistent medium (what a crash would leave). *)
let snapshot t = Bytes.copy t.persistent

(* A fresh device initialised from a snapshot: used by crash-consistency
   tests to mount and inspect the post-crash image while the pre-crash
   simulation keeps running. *)
let of_snapshot engine stats config image =
  let config = Config.validate config in
  if Bytes.length image <> config.Config.nvmm_size then
    invalid_arg "Device.of_snapshot: image size mismatch";
  {
    engine;
    stats;
    config;
    persistent = Bytes.copy image;
    overlay = Hashtbl.create 4096;
    bandwidth =
      Resource.create ~name:"nvmm-write-bandwidth"
        ~capacity:(Config.nw_slots config);
    recorder = None;
    fault = None;
  }

(* Test/setup helper: persist every dirty line through the same path as
   [clflush], then make the result guaranteed (flush-all acts as flush +
   fence, minus the timing and the fence hook). *)
let flush_all_untimed t =
  Hashtbl.fold (fun idx _ acc -> idx :: acc) t.overlay []
  |> List.sort compare
  |> List.iter (fun idx -> persist_line t idx);
  match t.recorder with
  | None -> ()
  | Some r -> record_fence_collapse r (fun _ -> false)

(* --- persistence-event recording & crash-state capture --- *)

let enable_recording t =
  flush_all_untimed t;
  t.recorder <- Some (Record.create ())

let disable_recording t = t.recorder <- None
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
    | Some r -> Hashtbl.length r.Record.lines
  in
  let dirty_unrecorded =
    Hashtbl.fold
      (fun idx _ acc ->
        match t.recorder with
        | Some r when Hashtbl.mem r.Record.lines idx -> acc
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
        :: List.map (fun v -> v.Record.content) rl.Record.versions
      | None -> [ Bytes.sub t.persistent (idx * ls) ls ]
    in
    let cands =
      match Hashtbl.find_opt t.overlay idx with
      | Some line -> cands @ [ Bytes.copy line ]
      | None -> cands
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
    Hashtbl.iter
      (fun idx rl ->
        match choice idx (Some rl) with
        | None -> ()
        | Some c -> choices := c :: !choices)
      r.Record.lines);
  Hashtbl.iter
    (fun idx _ ->
      let recorded =
        match t.recorder with
        | Some r -> Hashtbl.mem r.Record.lines idx
        | None -> false
      in
      if not recorded then
        match choice idx None with
        | None -> ()
        | Some c -> choices := c :: !choices)
    t.overlay;
  {
    cs_label = label;
    cs_image = Bytes.copy t.persistent;
    cs_line_size = ls;
    cs_choices = List.sort (fun (a, _) (b, _) -> compare a b) !choices;
  }

(* Concrete crash image: the guaranteed medium with [choice.(i)] picking
   the persisted candidate for the i-th undecided line. *)
let materialize_crash_image state ~choice =
  let img = Bytes.copy state.cs_image in
  List.iteri
    (fun i (idx, cands) ->
      let c = cands.(choice.(i)) in
      Bytes.blit c 0 img (idx * state.cs_line_size) state.cs_line_size)
    state.cs_choices;
  img
