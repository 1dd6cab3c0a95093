(* Durable NVMM write-cache tier (logging / paging designs) over extfs.

   Layout: the tail [cache_bytes] of the device is the cache area; the
   extfs backend is formatted over the leading blocks (Extfs.mkfs
   ~total_blocks). The first cacheline of the area is the header:

     0  magic "NVC1"          u32
     4  design tag            u8   (1 = logging, 2 = paging)
     8  area_bytes            u32  (sanity on mount)
     12 head offset           u32  (logging: ring offset of oldest record)
     16 head / next sequence  u64
     24 CRC-32C over [0,24)   u32

   Logging data region: [area + 64, area + area_bytes), a ring of 64-byte
   aligned records. Record header (one cacheline):

     0  magic "NVLR"          u32
     4  type                  u8   (1 = data, 2 = pad-to-end-of-ring)
     8  sequence              u64  (strictly increasing, never reused)
     16 backend byte address  u64
     24 payload length        u32
     28 CRC-32C over [0,28) + payload

   Records never wrap: a pad record fills the ring tail. Sequence numbers
   restore prefix semantics over weakly-ordered non-temporal stores: replay
   scans from the head expecting exactly the next sequence and stops at
   the first invalid or out-of-sequence record. Appends are serialized and
   individually fenced, so everything before a torn record predates any
   fsync that returned after it.

   Paging: a table of [nslots] 64-byte slot entries follows the header,
   then [nslots] block-size payload slots. Entry:

     0  magic "NVPE"          u32
     4  state                 u8   (1 = valid)
     8  sequence              u64
     16 backend block number  u64
     24 CRC-32C over [0,24) + payload

   A rewrite of a cached block always takes a fresh slot (the old entry
   stays valid until the new one is fenced), so a torn overwrite can never
   lose the previously fsync'd version; replay takes the newest valid
   sequence per block. Destage zeroes the entries of written-back and
   superseded slots before the slots can be reused.

   Runtime reads and destage are served from DRAM copies of the absorbed
   payloads (the NVMM image is the crash-recovery source of truth), with
   NVMM read latency charged explicitly; replay reads the medium. *)

module Proc = Hinfs_sim.Proc
module Engine = Hinfs_sim.Engine
module Condvar = Hinfs_sim.Condvar
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Blockdev = Hinfs_blockdev.Blockdev
module Extfs = Hinfs_extfs.Extfs
module Crc32c = Hinfs_structures.Crc32c
module Obs = Hinfs_obs.Obs

type design = Logging | Paging

let design_name = function Logging -> "nvlog" | Paging -> "nvpage"

type recovery = {
  rec_design : design;
  rec_replayed : int;
  rec_bytes : int;
  rec_dropped : int;
}

let line = 64
let get_u32 buf off = Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF
let round_line n = (n + line - 1) / line * line
let header_magic = 0x4E564331l (* "NVC1" *)
let record_magic = 0x4E564C52l (* "NVLR" *)
let entry_magic = 0x4E565045l (* "NVPE" *)
let rt_data = 1
let rt_pad = 2
let design_tag = function Logging -> 1 | Paging -> 2
let design_of_tag = function 1 -> Some Logging | 2 -> Some Paging | _ -> None

(* --- area geometry --- *)

let default_cache_bytes (config : Config.t) =
  let bs = config.Config.block_size in
  let b = config.Config.nvmm_size / 8 in
  let b = max (64 * 1024) (min (64 * 1024 * 1024) b) in
  (b + bs - 1) / bs * bs

let area_of config cache_bytes =
  let bs = config.Config.block_size in
  let cache_bytes =
    match cache_bytes with Some b -> b | None -> default_cache_bytes config
  in
  if cache_bytes mod bs <> 0 then
    invalid_arg "Nvcache: cache_bytes must be block-aligned";
  let cache_blocks = cache_bytes / bs in
  let total = Config.blocks config in
  (* The smallest useful log is a few records; the backend needs room for
     an extfs. *)
  if cache_blocks < 4 || total - cache_blocks < 8 then
    invalid_arg "Nvcache: cache_bytes leaves no usable split";
  let backend_blocks = total - cache_blocks in
  (backend_blocks, backend_blocks * bs, cache_bytes)

(* --- header --- *)

let write_header_bytes buf ~design ~area_bytes ~head ~seq =
  Bytes.fill buf 0 line '\000';
  Bytes.set_int32_le buf 0 header_magic;
  Bytes.set_uint8 buf 4 (design_tag design);
  Bytes.set_int32_le buf 8 (Int32.of_int area_bytes);
  Bytes.set_int32_le buf 12 (Int32.of_int head);
  Bytes.set_int64_le buf 16 (Int64.of_int seq);
  Bytes.set_int32_le buf 24 (Int32.of_int (Crc32c.digest buf ~off:0 ~len:24))

let read_header_bytes buf =
  if Bytes.get_int32_le buf 0 <> header_magic then None
  else if
    get_u32 buf 24 <> Crc32c.digest buf ~off:0 ~len:24
  then None
  else
    match design_of_tag (Bytes.get_uint8 buf 4) with
    | None -> None
    | Some design ->
      Some
        ( design,
          get_u32 buf 8,
          get_u32 buf 12,
          Int64.to_int (Bytes.get_int64_le buf 16) )

(* --- record / entry encoding --- *)

let encode_record ~rtype ~seq ~dest ~payload_len =
  let psize = round_line payload_len in
  let buf = Bytes.make (line + psize) '\000' in
  Bytes.set_int32_le buf 0 record_magic;
  Bytes.set_uint8 buf 4 rtype;
  Bytes.set_int64_le buf 8 (Int64.of_int seq);
  Bytes.set_int64_le buf 16 (Int64.of_int dest);
  Bytes.set_int32_le buf 24 (Int32.of_int payload_len);
  buf

let seal_record buf ~payload_len =
  let crc = Crc32c.digest buf ~off:0 ~len:28 in
  let crc = Crc32c.update crc buf ~off:line ~len:payload_len in
  Bytes.set_int32_le buf 28 (Int32.of_int crc)

let encode_entry ~seq ~block ~payload =
  let buf = Bytes.make line '\000' in
  Bytes.set_int32_le buf 0 entry_magic;
  Bytes.set_uint8 buf 4 1;
  Bytes.set_int64_le buf 8 (Int64.of_int seq);
  Bytes.set_int64_le buf 16 (Int64.of_int block);
  let crc = Crc32c.digest buf ~off:0 ~len:24 in
  let crc = Crc32c.update crc payload ~off:0 ~len:(Bytes.length payload) in
  Bytes.set_int32_le buf 24 (Int32.of_int crc);
  buf

(* --- tier state --- *)

type log_entry = {
  e_seq : int;
  e_doff : int; (* dest offset within the block *)
  e_len : int;
  e_data : Bytes.t; (* DRAM copy of the payload *)
}

type log_item =
  | Ldata of { l_seq : int; l_block : int; l_doff : int; l_entry : log_entry }
  | Lpad

type slot_state = Sfree | Squeued | Sstale | Sdestaging

type slot = {
  s_index : int;
  s_payload : Bytes.t; (* DRAM copy *)
  mutable s_state : slot_state;
  mutable s_block : int;
  mutable s_seq : int;
}

type queue_item = Qlog of { q_item : log_item; q_size : int } | Qslot of slot

type t = {
  device : Device.t;
  bdev : Blockdev.t;
  design : design;
  area_start : int;
  area_bytes : int;
  block_size : int;
  (* logging ring *)
  data_start : int; (* byte addr of the ring *)
  ring_bytes : int;
  mutable head : int; (* ring offset of the oldest un-destaged byte *)
  mutable tail : int; (* ring offset of the next append *)
  mutable used : int;
  mutable next_seq : int;
  index : (int, log_entry list) Hashtbl.t; (* block -> oldest-first *)
  (* paging slots *)
  slots : slot array;
  mutable free_slots : int list;
  slot_of_block : (int, slot) Hashtbl.t;
  entry_base : int;
  payload_base : int;
  (* destage *)
  queue : queue_item Queue.t;
  work : Condvar.t;
  space : Condvar.t;
  append_idle : Condvar.t;
  mutable appending : bool;
  mutable destaging : bool;
  mutable stopping : bool;
  mutable daemon_running : bool;
  (* counters *)
  mutable appends : int;
  mutable absorbed_bytes : int;
  mutable destages : int;
  mutable destaged_records : int;
  mutable stalls : int;
  mutable bypasses : int;
}

let backlog t = Queue.length t.queue
let appends t = t.appends
let absorbed_bytes t = t.absorbed_bytes
let destages t = t.destages
let destaged_records t = t.destaged_records
let stalls t = t.stalls
let bypassed_writes t = t.bypasses

let nslots_of ~area_bytes ~block_size = (area_bytes - line) / (line + block_size)

let capacity_bytes t =
  match t.design with
  | Logging -> t.ring_bytes
  | Paging -> Array.length t.slots * t.block_size

let used_bytes t =
  match t.design with
  | Logging -> t.used
  | Paging -> (Array.length t.slots - List.length t.free_slots) * t.block_size

(* --- locks (cooperative) --- *)

let append_lock t =
  while t.appending do
    Condvar.wait t.append_idle
  done;
  t.appending <- true

let append_unlock t =
  t.appending <- false;
  ignore (Condvar.broadcast t.append_idle)

(* --- destage --- *)

let persist_log_head ?(background = false) t ~cat =
  let buf = Bytes.make line '\000' in
  write_header_bytes buf ~design:t.design ~area_bytes:t.area_bytes ~head:t.head
    ~seq:t.next_seq;
  Device.write_nt ~background t.device ~cat ~addr:t.area_start ~src:buf ~off:0
    ~len:line;
  Device.mfence t.device ~cat

let prune_index t ~block ~seq =
  match Hashtbl.find_opt t.index block with
  | None -> ()
  | Some entries -> (
    match List.filter (fun e -> e.e_seq <> seq) entries with
    | [] -> Hashtbl.remove t.index block
    | rest -> Hashtbl.replace t.index block rest)

let destage_batch_max = 64

(* Apply up to [destage_batch_max] queued items to the backend, in order,
   then persist the truncation (logging: advance the head; paging: zero
   the written-back entries). Serialized: the daemon, append backpressure
   and unmount drain all funnel through here. *)
let destage_some ?(background = false) t ~cat =
  if t.destaging then
    while t.destaging do
      Condvar.wait t.space
    done
  else if not (Queue.is_empty t.queue) then begin
    t.destaging <- true;
    Fun.protect
      ~finally:(fun () ->
        t.destaging <- false;
        ignore (Condvar.broadcast t.space))
      (fun () ->
        let t0 = Engine.now (Device.engine t.device) in
        let batch = ref [] in
        while
          List.length !batch < destage_batch_max
          && not (Queue.is_empty t.queue)
        do
          batch := Queue.pop t.queue :: !batch
        done;
        let batch = List.rev !batch in
        let wrote = ref false in
        (* Coalesce byte-contiguous log records (a journal commit is a run
           of consecutive blocks; file appends often are too) into single
           block-layer requests: one per-request charge per run instead of
           per record. Runs are flushed in log order, so overlapping
           non-contiguous records still apply oldest-first. *)
        let run_addr = ref (-1) in
        let run = Buffer.create 4096 in
        let flush_run () =
          if Buffer.length run > 0 then begin
            let data = Buffer.to_bytes run in
            Blockdev.write_range ~background t.bdev ~cat ~addr:!run_addr
              ~src:data ~off:0 ~len:(Bytes.length data);
            wrote := true;
            Buffer.clear run;
            run_addr := -1
          end
        in
        List.iter
          (fun item ->
            match item with
            | Qlog { q_item = Lpad; _ } -> ()
            | Qlog { q_item = Ldata d; _ } ->
              let e = d.l_entry in
              Device.charge_memcpy t.device cat `Read e.e_len;
              let addr = (d.l_block * t.block_size) + d.l_doff in
              if !run_addr < 0 || addr <> !run_addr + Buffer.length run then begin
                flush_run ();
                run_addr := addr
              end;
              Buffer.add_bytes run e.e_data
            | Qslot slot -> (
              flush_run ();
              match slot.s_state with
              | Sstale -> ()
              | Squeued ->
                slot.s_state <- Sdestaging;
                Device.charge_memcpy t.device cat `Read t.block_size;
                Blockdev.write_range ~background t.bdev ~cat
                  ~addr:(slot.s_block * t.block_size)
                  ~src:slot.s_payload ~off:0 ~len:t.block_size;
                wrote := true
              | Sfree | Sdestaging ->
                (* Unreachable: a slot is queued exactly once per fill. *)
                ()))
          batch;
        flush_run ();
        if !wrote then Device.mfence t.device ~cat;
        (* Truncate: everything in the batch is now ordered on the
           backend (or superseded), so it may never replay again. *)
        (match t.design with
        | Logging ->
          let advanced = ref 0 in
          List.iter
            (fun item ->
              match item with
              | Qlog { q_item; q_size } ->
                advanced := !advanced + q_size;
                (match q_item with
                | Ldata d -> prune_index t ~block:d.l_block ~seq:d.l_seq
                | Lpad -> ())
              | Qslot _ -> ())
            batch;
          if !advanced > 0 then begin
            t.head <- (t.head + !advanced) mod t.ring_bytes;
            t.used <- t.used - !advanced;
            persist_log_head ~background t ~cat
          end
        | Paging ->
          (* Two fenced passes, superseded entries strictly first. Zeroing
             a block's stale and fresh entries in one fence epoch would let
             a crash keep the stale one while losing the fresh one, and
             replay would put stale content over the newer backend data.
             With stale entries guaranteed gone before a fresh entry can
             disappear, replay only ever re-applies what the backend
             already holds. *)
          let zero = Bytes.make line '\000' in
          let zero_entries pred =
            let zeroed = ref false in
            List.iter
              (fun item ->
                match item with
                | Qslot slot when pred slot.s_state ->
                  Device.write_nt ~background t.device ~cat
                    ~addr:(t.entry_base + (slot.s_index * line))
                    ~src:zero ~off:0 ~len:line;
                  zeroed := true
                | Qslot _ | Qlog _ -> ())
              batch;
            if !zeroed then Device.mfence t.device ~cat
          in
          zero_entries (fun s -> s = Sstale);
          zero_entries (fun s -> s = Sdestaging);
          List.iter
            (fun item ->
              match item with
              | Qslot slot ->
                (match Hashtbl.find_opt t.slot_of_block slot.s_block with
                | Some cur when cur == slot ->
                  Hashtbl.remove t.slot_of_block slot.s_block
                | _ -> ());
                slot.s_state <- Sfree;
                t.free_slots <- slot.s_index :: t.free_slots
              | Qlog _ -> ())
            batch);
        List.iter
          (fun item ->
            match item with
            | Qlog { q_item = Ldata _; _ } | Qslot _ ->
              t.destaged_records <- t.destaged_records + 1
            | Qlog { q_item = Lpad; _ } -> ())
          batch;
        t.destages <- t.destages + 1;
        Obs.span_since Obs.Nvcache_destage ~t0)
  end

let destage_all t =
  while not (Queue.is_empty t.queue) || t.destaging do
    destage_some t ~cat:Stats.Other
  done

let wait_for_space t ~need =
  let free () =
    match t.design with
    | Logging -> t.ring_bytes - t.used
    | Paging -> List.length t.free_slots * t.block_size
  in
  if free () < need then begin
    t.stalls <- t.stalls + 1;
    while free () < need do
      if t.daemon_running then begin
        ignore (Condvar.signal t.work);
        Condvar.wait t.space
      end
      else destage_some t ~cat:Stats.Other
    done
  end

let start_destage_daemon t =
  if t.daemon_running then invalid_arg "Nvcache: daemon already running";
  t.daemon_running <- true;
  Proc.spawn ~name:"nvcache-destage" (fun () ->
      let rec loop () =
        if not t.stopping then begin
          if Queue.is_empty t.queue then Condvar.wait t.work
          else destage_some ~background:true t ~cat:Stats.Other;
          loop ()
        end
      in
      loop ();
      t.daemon_running <- false)

let stop_destage_daemon t =
  if t.daemon_running then begin
    t.stopping <- true;
    ignore (Condvar.broadcast t.work)
  end

(* --- tier write paths --- *)

let absorb_log t ~background ~cat ~block ~src ~off ~dirty =
  let doff, len =
    match dirty with
    | Some (d_off, d_len) when d_len > 0 && d_len <= t.block_size ->
      (d_off, d_len)
    | _ -> (0, t.block_size)
  in
  let psize = round_line len in
  let need = line + psize in
  append_lock t;
  Fun.protect
    ~finally:(fun () -> append_unlock t)
    (fun () ->
      let t0 = Engine.now (Device.engine t.device) in
      (* A record never wraps: pad to the end of the ring if needed, and
         reserve space for record plus pad together. *)
      let pad = if t.ring_bytes - t.tail < need then t.ring_bytes - t.tail else 0 in
      wait_for_space t ~need:(need + pad);
      if pad > 0 then begin
        let seq = t.next_seq in
        (* Pad payload is skipped, not read back: CRC covers the header
           only (payload_len tells the scanner how far to skip). *)
        let buf = Bytes.make line '\000' in
        Bytes.set_int32_le buf 0 record_magic;
        Bytes.set_uint8 buf 4 rt_pad;
        Bytes.set_int64_le buf 8 (Int64.of_int seq);
        Bytes.set_int32_le buf 24 (Int32.of_int (pad - line));
        Bytes.set_int32_le buf 28
          (Int32.of_int (Crc32c.digest buf ~off:0 ~len:28));
        Device.write_nt ~background t.device ~cat ~addr:(t.data_start + t.tail)
          ~src:buf ~off:0 ~len:line;
        t.next_seq <- seq + 1;
        t.used <- t.used + pad;
        t.tail <- 0;
        Queue.push (Qlog { q_item = Lpad; q_size = pad }) t.queue
      end;
      let seq = t.next_seq in
      let dest = (block * t.block_size) + doff in
      let buf = encode_record ~rtype:rt_data ~seq ~dest ~payload_len:len in
      Bytes.blit src (off + doff) buf line len;
      seal_record buf ~payload_len:len;
      Device.write_nt ~background t.device ~cat ~addr:(t.data_start + t.tail)
        ~src:buf ~off:0 ~len:(line + psize);
      (* The absorbed write carries the block layer's completion contract:
         durable and ordered when the call returns. *)
      Device.mfence t.device ~cat;
      t.next_seq <- seq + 1;
      t.used <- t.used + need;
      t.tail <- (t.tail + need) mod t.ring_bytes;
      let entry = { e_seq = seq; e_doff = doff; e_len = len; e_data = Bytes.sub buf line len } in
      let entries =
        match Hashtbl.find_opt t.index block with None -> [] | Some l -> l
      in
      Hashtbl.replace t.index block (entries @ [ entry ]);
      Queue.push
        (Qlog
           { q_item = Ldata { l_seq = seq; l_block = block; l_doff = doff; l_entry = entry };
             q_size = need })
        t.queue;
      if t.daemon_running then ignore (Condvar.signal t.work);
      t.appends <- t.appends + 1;
      t.absorbed_bytes <- t.absorbed_bytes + len;
      Obs.span_since Obs.Nvcache_append ~t0)

let absorb_page t ~background ~cat ~block ~src ~off =
  append_lock t;
  Fun.protect
    ~finally:(fun () -> append_unlock t)
    (fun () ->
      let t0 = Engine.now (Device.engine t.device) in
      wait_for_space t ~need:t.block_size;
      let idx = List.hd t.free_slots in
      t.free_slots <- List.tl t.free_slots;
      let slot = t.slots.(idx) in
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Bytes.blit src off slot.s_payload 0 t.block_size;
      slot.s_block <- block;
      slot.s_seq <- seq;
      Device.write_nt ~background t.device ~cat
        ~addr:(t.payload_base + (idx * t.block_size))
        ~src ~off ~len:t.block_size;
      let entry = encode_entry ~seq ~block ~payload:slot.s_payload in
      Device.write_nt ~background t.device ~cat
        ~addr:(t.entry_base + (idx * line))
        ~src:entry ~off:0 ~len:line;
      Device.mfence t.device ~cat;
      (* Only after the new version is fenced does the old slot become
         stale — a crash in between must still find the old version. *)
      (match Hashtbl.find_opt t.slot_of_block block with
      | Some old when old.s_state = Squeued -> old.s_state <- Sstale
      | _ -> ());
      slot.s_state <- Squeued;
      Hashtbl.replace t.slot_of_block block slot;
      Queue.push (Qslot slot) t.queue;
      if t.daemon_running then ignore (Condvar.signal t.work);
      t.appends <- t.appends + 1;
      t.absorbed_bytes <- t.absorbed_bytes + t.block_size;
      Obs.span_since Obs.Nvcache_append ~t0)

(* --- tier read paths --- *)

let overlay_log ~into ~off entries =
  List.iter
    (fun e -> Bytes.blit e.e_data 0 into (off + e.e_doff) e.e_len)
    entries

let tier_read t ~cat ~block ~into ~off =
  match t.design with
  | Logging -> (
    match Hashtbl.find_opt t.index block with
    | None | Some [] -> false
    | Some entries ->
      (* Snapshot now: destage may prune the table while the backend read
         below yields. Re-applying an already-destaged record is
         byte-idempotent, so a stale snapshot stays correct. *)
      Device.read t.device ~cat ~addr:(block * t.block_size) ~len:t.block_size
        ~into ~off;
      overlay_log ~into ~off entries;
      Device.charge_memcpy t.device cat `Read
        (List.fold_left (fun a e -> a + e.e_len) 0 entries);
      true)
  | Paging -> (
    match Hashtbl.find_opt t.slot_of_block block with
    | None -> false
    | Some slot ->
      let data = Bytes.copy slot.s_payload in
      Device.charge_memcpy t.device cat `Read t.block_size;
      Bytes.blit data 0 into off t.block_size;
      true)

let tier_peek t ~block =
  match t.design with
  | Logging -> (
    match Hashtbl.find_opt t.index block with
    | None | Some [] -> None
    | Some entries ->
      let buf =
        Device.peek t.device ~addr:(block * t.block_size) ~len:t.block_size
      in
      overlay_log ~into:buf ~off:0 entries;
      Some buf)
  | Paging -> (
    match Hashtbl.find_opt t.slot_of_block block with
    | None -> None
    | Some slot -> Some (Bytes.copy slot.s_payload))

(* Does the tier still hold an un-truncated version of [block]? While it
   does, every new write of the block MUST be absorbed behind it — a
   direct backend write would be replayed over by the older cached
   version after a crash. The index / slot map cover queued and in-flight
   records until truncation, so this check is exact. *)
let has_pending t ~block =
  match t.design with
  | Logging -> (
    match Hashtbl.find_opt t.index block with
    | Some (_ :: _) -> true
    | None | Some [] -> false)
  | Paging -> Hashtbl.mem t.slot_of_block block

let under_pressure t = 2 * used_bytes t >= capacity_bytes t

let tier_of t =
  {
    Blockdev.tier_name = design_name t.design;
    tier_write =
      (fun ~background ~cat ~block ~src ~off ~dirty ->
        (* Write-around: background writeback gains nothing from absorb
           latency, and absorbing past half occupancy turns every sync
           write into destage-wait + absorb — strictly worse than the
           direct path. Declining hands the write to the block device's
           own fenced synchronous path. Only legal while the tier holds
           no older version of the block (upper layers serialize writes
           per block, so the check cannot go stale before the direct
           write lands). *)
        if (background || under_pressure t) && not (has_pending t ~block) then begin
          t.bypasses <- t.bypasses + 1;
          if t.daemon_running && not (Queue.is_empty t.queue) then
            ignore (Condvar.signal t.work);
          false
        end
        else begin
          (match t.design with
          | Logging -> absorb_log t ~background ~cat ~block ~src ~off ~dirty
          | Paging -> absorb_page t ~background ~cat ~block ~src ~off);
          true
        end);
    tier_read = (fun ~cat ~block ~into ~off -> tier_read t ~cat ~block ~into ~off);
    tier_peek = (fun ~block -> tier_peek t ~block);
  }

(* --- format / recover (untimed) --- *)

let format device ~design ?cache_bytes () =
  let config = Device.config device in
  let _, area_start, area_bytes = area_of config cache_bytes in
  let buf = Bytes.make line '\000' in
  write_header_bytes buf ~design ~area_bytes ~head:0 ~seq:1;
  Device.poke device ~addr:area_start ~src:buf ~off:0 ~len:line;
  match design with
  | Logging -> ()
  | Paging ->
    let bs = config.Config.block_size in
    let nslots = nslots_of ~area_bytes ~block_size:bs in
    let zeros = Bytes.make (nslots * line) '\000' in
    Device.poke device ~addr:(area_start + line) ~src:zeros ~off:0
      ~len:(nslots * line)

let fence_every = 32

let recover_log device ~area_start ~area_bytes ~head ~head_seq =
  let ring_bytes = area_bytes - line in
  let data_start = area_start + line in
  let applied = ref 0 and bytes = ref 0 and dropped = ref 0 in
  let off = ref head and seq = ref head_seq and scanned = ref 0 in
  let stop = ref false in
  while not !stop do
    if !off >= ring_bytes then off := 0;
    if !scanned + line > ring_bytes then stop := true
    else begin
      let addr = data_start + !off in
      let hdr = Device.peek_persistent device ~addr ~len:line in
      let magic_ok = Bytes.get_int32_le hdr 0 = record_magic in
      let rtype = Bytes.get_uint8 hdr 4 in
      let rseq = Int64.to_int (Bytes.get_int64_le hdr 8) in
      let dest = Int64.to_int (Bytes.get_int64_le hdr 16) in
      let len = get_u32 hdr 24 in
      let stored_crc = get_u32 hdr 28 in
      if (not magic_ok) || rseq <> !seq then stop := true
      else if rtype = rt_pad then begin
        if
          len < 0
          || !off + line + len > ring_bytes
          || stored_crc <> Crc32c.digest hdr ~off:0 ~len:28
        then stop := true
        else begin
          scanned := !scanned + line + len;
          off := !off + line + len;
          incr seq
        end
      end
      else if rtype <> rt_data || len < 0 || len > area_bytes
              || !off + line + round_line len > ring_bytes
              || dest < 0
              || dest + len > area_start
      then stop := true
      else begin
        let payload = Device.peek_persistent device ~addr:(addr + line) ~len in
        let crc = Crc32c.digest hdr ~off:0 ~len:28 in
        let crc = Crc32c.update crc payload ~off:0 ~len in
        if Device.verify_range device ~addr ~len:(line + len) <> [] then begin
          (* Poisoned media under the record: the prefix ends here and the
             record is counted as lost. *)
          incr dropped;
          stop := true
        end
        else if crc <> stored_crc then stop := true
        else begin
          Device.poke_flushed device ~addr:dest ~src:payload ~off:0 ~len;
          incr applied;
          bytes := !bytes + len;
          if !applied mod fence_every = 0 then Device.fence_untimed device;
          scanned := !scanned + line + round_line len;
          off := !off + line + round_line len;
          incr seq
        end
      end
    end
  done;
  (!applied, !bytes, !dropped, !seq)

let recover_page device ~area_start ~area_bytes =
  let config = Device.config device in
  let bs = config.Config.block_size in
  let nslots = nslots_of ~area_bytes ~block_size:bs in
  let entry_base = area_start + line in
  let payload_base = entry_base + (nslots * line) in
  let dropped = ref 0 in
  (* Newest valid sequence per block wins. *)
  let best = Hashtbl.create 64 in
  let max_seq = ref 0 in
  for i = 0 to nslots - 1 do
    let hdr = Device.peek_persistent device ~addr:(entry_base + (i * line)) ~len:line in
    if Bytes.get_int32_le hdr 0 = entry_magic && Bytes.get_uint8 hdr 4 = 1 then begin
      let seq = Int64.to_int (Bytes.get_int64_le hdr 8) in
      let block = Int64.to_int (Bytes.get_int64_le hdr 16) in
      let stored_crc = get_u32 hdr 24 in
      let paddr = payload_base + (i * bs) in
      let payload = Device.peek_persistent device ~addr:paddr ~len:bs in
      let crc = Crc32c.digest hdr ~off:0 ~len:24 in
      let crc = Crc32c.update crc payload ~off:0 ~len:bs in
      let poisoned =
        Device.verify_range device ~addr:(entry_base + (i * line)) ~len:line <> []
        || Device.verify_range device ~addr:paddr ~len:bs <> []
      in
      (* A CRC mismatch alone is a torn in-flight entry (the crash hit
         mid-append, before the version was fenced) — not data loss. Only
         poison under a structurally valid entry counts as dropped. *)
      if poisoned then incr dropped
      else if crc <> stored_crc then ()
      else if block >= 0 && (block + 1) * bs <= area_start then begin
        if seq > !max_seq then max_seq := seq;
        match Hashtbl.find_opt best block with
        | Some (prev_seq, _, _) when prev_seq >= seq -> ()
        | _ -> Hashtbl.replace best block (seq, i, payload)
      end
    end
  done;
  let applied = ref 0 and bytes = ref 0 in
  let winners =
    Hashtbl.fold
      (fun block (seq, i, payload) acc -> (seq, block, i, payload) :: acc)
      best []
    |> List.sort compare
  in
  List.iter
    (fun (_seq, block, _i, payload) ->
      Device.poke_flushed device ~addr:(block * bs) ~src:payload ~off:0 ~len:bs;
      incr applied;
      bytes := !bytes + bs;
      if !applied mod fence_every = 0 then Device.fence_untimed device)
    winners;
  Device.fence_untimed device;
  (* Clear the entries in two ordered passes — superseded and torn slots
     strictly before the winners (same hazard as the destage truncation: a
     re-crash mid-clear must never keep an older entry for a block after
     its newest one is gone, or the next replay would put stale content
     over what the first replay just applied). Each pass's survivors
     re-apply the same bytes, so replay stays idempotent. *)
  let winner_slots = Array.make nslots false in
  List.iter (fun (_, _, i, _) -> winner_slots.(i) <- true) winners;
  let zero = Bytes.make line '\000' in
  let clear pred =
    for i = 0 to nslots - 1 do
      if pred i then
        Device.poke_flushed device ~addr:(entry_base + (i * line)) ~src:zero
          ~off:0 ~len:line
    done;
    Device.fence_untimed device
  in
  clear (fun i -> not winner_slots.(i));
  clear (fun i -> winner_slots.(i));
  (!applied, !bytes, !dropped, !max_seq + 1)

let recover device ?cache_bytes () =
  let config = Device.config device in
  let _, area_start, area_bytes = area_of config cache_bytes in
  let engine = Device.engine device in
  let t0 = Engine.now engine in
  let hdr = Device.peek_persistent device ~addr:area_start ~len:line in
  match read_header_bytes hdr with
  | None ->
    Fmt.invalid_arg "Nvcache.recover: no valid cache header at %d" area_start
  | Some (rec_design, hdr_bytes, head, head_seq) ->
    if hdr_bytes <> area_bytes then
      Fmt.invalid_arg "Nvcache.recover: header says %d area bytes, mounting %d"
        hdr_bytes area_bytes;
    let applied, bytes, dropped, next_seq =
      match rec_design with
      | Logging ->
        recover_log device ~area_start ~area_bytes ~head ~head_seq
      | Paging -> recover_page device ~area_start ~area_bytes
    in
    Device.fence_untimed device;
    (* An empty cache whose sequence is above everything just replayed:
       stale records can never match the expected sequence again. Ordered
       after the applies; a re-crash before this point rescans from the
       old header and re-applies the same bytes. *)
    let buf = Bytes.make line '\000' in
    write_header_bytes buf ~design:rec_design ~area_bytes ~head:0 ~seq:next_seq;
    Device.poke_flushed device ~addr:area_start ~src:buf ~off:0 ~len:line;
    Device.fence_untimed device;
    let stats = Device.stats device in
    if applied > 0 || dropped > 0 then
      Stats.add_recovery stats ~rolled_back:0 ~dropped;
    Obs.span_since Obs.Nvcache_replay ~t0;
    { rec_design; rec_replayed = applied; rec_bytes = bytes; rec_dropped = dropped }

(* --- composed stack --- *)

type stack = {
  st_cache : t;
  st_fs : Extfs.t;
  st_recovery : recovery option;
  mutable st_daemons : bool;
}

let fs st = st.st_fs
let cache st = st.st_cache
let handle st = Extfs.handle st.st_fs
let last_recovery st = st.st_recovery

let create_tier device ~design ~cache_bytes ~bdev ~next_seq =
  let config = Device.config device in
  let bs = config.Config.block_size in
  let _, area_start, area_bytes = area_of config cache_bytes in
  let nslots =
    match design with
    | Logging -> 0
    | Paging -> nslots_of ~area_bytes ~block_size:bs
  in
  let engine = Device.engine device in
  {
    device;
    bdev;
    design;
    area_start;
    area_bytes;
    block_size = bs;
    data_start = area_start + line;
    ring_bytes = area_bytes - line;
    head = 0;
    tail = 0;
    used = 0;
    next_seq;
    index = Hashtbl.create 256;
    slots =
      Array.init nslots (fun i ->
          {
            s_index = i;
            s_payload = Bytes.make bs '\000';
            s_state = Sfree;
            s_block = -1;
            s_seq = 0;
          });
    free_slots = List.init nslots (fun i -> i);
    slot_of_block = Hashtbl.create 256;
    entry_base = area_start + line;
    payload_base = area_start + line + (nslots * line);
    queue = Queue.create ();
    work = Condvar.create engine;
    space = Condvar.create engine;
    append_idle = Condvar.create engine;
    appending = false;
    destaging = false;
    stopping = false;
    daemon_running = false;
    appends = 0;
    absorbed_bytes = 0;
    destages = 0;
    destaged_records = 0;
    stalls = 0;
    bypasses = 0;
  }

let attach st =
  Blockdev.attach_tier (Extfs.bdev st.st_fs) (Some (tier_of st.st_cache))

let start_daemons st =
  if st.st_daemons then invalid_arg "Nvcache: daemons already started";
  st.st_daemons <- true;
  Extfs.start_daemons st.st_fs;
  start_destage_daemon st.st_cache

let mkfs_and_mount device ~design ~mode ?cache_bytes ?journal_blocks
    ?sync_mount ?cache_pages ?(daemons = false) () =
  let config = Device.config device in
  let backend_blocks, _, _ = area_of config cache_bytes in
  Extfs.mkfs device ?journal_blocks ~total_blocks:backend_blocks ();
  format device ~design ?cache_bytes ();
  let fs = Extfs.mount device ~mode ?sync_mount ?cache_pages () in
  let tier =
    create_tier device ~design ~cache_bytes ~bdev:(Extfs.bdev fs) ~next_seq:1
  in
  let st = { st_cache = tier; st_fs = fs; st_recovery = None; st_daemons = false } in
  attach st;
  if daemons then start_daemons st;
  st

let mount device ~mode ?cache_bytes ?sync_mount ?cache_pages
    ?(daemons = false) () =
  let rec_result = recover device ?cache_bytes () in
  let fs = Extfs.mount device ~mode ?sync_mount ?cache_pages () in
  (* recover just persisted an empty cache header carrying the next
     sequence number; read it back as the tier's starting point. *)
  let config = Device.config device in
  let _, area_start, _ = area_of config cache_bytes in
  let next_seq =
    match
      read_header_bytes (Device.peek_persistent device ~addr:area_start ~len:line)
    with
    | Some (_, _, _, seq) -> seq
    | None -> assert false
  in
  let tier =
    create_tier device ~design:rec_result.rec_design ~cache_bytes
      ~bdev:(Extfs.bdev fs) ~next_seq
  in
  let st =
    { st_cache = tier; st_fs = fs; st_recovery = Some rec_result;
      st_daemons = false }
  in
  attach st;
  if daemons then start_daemons st;
  st

let unmount st =
  (* Extfs.unmount flushes everything buffered into the tier; the drain
     then empties the tier onto the backend, so the backend is
     self-contained and the next mount replays nothing. *)
  Extfs.unmount st.st_fs;
  destage_all st.st_cache;
  stop_destage_daemon st.st_cache
