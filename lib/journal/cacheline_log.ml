(* PMFS-style fine-grained undo journal (paper §4.1).

   Metadata updates are journaled at cacheline granularity: before updating
   a metadata range in place, its old contents are appended to the log as
   64-byte entries whose [valid] flag is written last — relying on the
   architectural guarantee that writes to one cacheline are not reordered,
   exactly as PMFS does. Commit writes a commit entry; checkpointing then
   clears the transaction's entries (data entries strictly before the
   commit entry, so recovery can never roll back a committed transaction).

   Entry layout (64 B, one cacheline):
     0..7    target address
     8..11   transaction id
     12..15  global sequence number
     16..17  payload length (<= 40)
     18      entry type (1 = undo data, 2 = commit)
     19..58  payload (old contents)
     59..62  CRC-32C over bytes [0, 59)
     63      valid flag (0xA5)

   Recovery scans the whole region for valid entries, skipping poisoned
   cachelines and entries whose checksum does not match (a torn or corrupt
   record is never trusted — it is counted as dropped instead):
   transactions with a commit entry are discarded; the rest are rolled back
   by applying their undo payloads in decreasing sequence order. *)

module Proc = Hinfs_sim.Proc
module Condvar = Hinfs_sim.Condvar
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Crc32c = Hinfs_structures.Crc32c
module Obs = Hinfs_obs.Obs
module Itbl = Hinfs_structures.Itbl

let entry_size = 64
let payload_capacity = 40
let crc_off = 59
let valid_magic = 0xA5
let type_data = 1
let type_commit = 2

(* Cross-shard commit entry: carries an 8-byte epoch id. The transaction is
   durable iff the filesystem's epoch record holds an id >= this one, so N
   per-shard transactions all stamped with one epoch commit atomically when
   the (single-cacheline) epoch record lands. *)
let type_epoch_commit = 3

exception Journal_full

type resource = Block | Inode

(* --- per-transaction bookkeeping ---

   A transaction's slots, ranges and owned numbers live in a [book]: flat
   int arrays in insertion order, walked newest-first where the order
   matters. The log keeps its books for reuse: a transaction takes one
   from the pool, and it returns there once the transaction has ended and
   the cleaner has checkpointed its entries. Books live in the major heap,
   and logging into one stores ints, so a transaction leaves no garbage
   for the collector to promote. *)

type book = {
  mutable slots : int array; (* data-entry slots, in log order *)
  mutable nslots : int;
  mutable ranges : int array; (* target (addr, len) pairs to flush *)
  mutable nranges : int; (* pairs *)
  logged : unit Itbl.t;
      (* ranges already journaled, by [range_key]: a range whose entries
         could not all be appended stays here though it is not in
         [ranges] *)
  (* numbers the transaction owns, newest last, each [4n + 2k + r]: [k]
     is 1 for a release (handed back at commit) and 0 for an allocation
     (handed back at abort), [r] is 1 for an inode and 0 for a block *)
  mutable owned : int array;
  mutable nowned : int;
  mutable epoch_slot : int; (* slot of the epoch-commit entry, or -1 *)
  mutable holds : int; (* the live transaction, commits, clean items *)
  mutable commits : int; (* commits in flight *)
  mutable next : book; (* link in the pool *)
}

let make_book () =
  let rec b =
    {
      slots = Array.make 8 0;
      nslots = 0;
      ranges = Array.make 16 0;
      nranges = 0;
      logged = Itbl.create ~dummy:() 8;
      owned = Array.make 4 0;
      nowned = 0;
      epoch_slot = -1;
      holds = 0;
      commits = 0;
      next = b;
    }
  in
  b

(* The end of every book chain, and the book of a committed transaction. *)
let nil = make_book ()

(* [a], whose first [n] elements are in use, with room for [k] more. *)
let room a n k =
  if n + k <= Array.length a then a
  else begin
    let grown = Array.make (2 * (n + k)) 0 in
    Array.blit a 0 grown 0 n;
    grown
  end

let push_slot b slot =
  b.slots <- room b.slots b.nslots 1;
  b.slots.(b.nslots) <- slot;
  b.nslots <- b.nslots + 1

let push_range b addr len =
  b.ranges <- room b.ranges (2 * b.nranges) 2;
  b.ranges.(2 * b.nranges) <- addr;
  b.ranges.((2 * b.nranges) + 1) <- len;
  b.nranges <- b.nranges + 1

(* One int per range: a range is at most [max_range] bytes, and starts
   below 2^42. *)
let len_bits = 20
let max_range = (1 lsl len_bits) - 1

let range_key addr len =
  if len > max_range || addr < 0 || addr lsr (62 - len_bits) <> 0 then
    invalid_arg "Cacheline_log.log: range out of bounds";
  (addr lsl len_bits) lor len

let push_owned b code =
  b.owned <- room b.owned b.nowned 1;
  b.owned.(b.nowned) <- code;
  b.nowned <- b.nowned + 1

let reset_book b =
  b.nslots <- 0;
  b.nranges <- 0;
  Itbl.clear b.logged;
  b.nowned <- 0;
  b.epoch_slot <- -1

type txn = {
  id : int;
  mutable book : book; (* [nil] once committed *)
  mutable committed : bool;
}

type t = {
  device : Device.t;
  base : int; (* byte address of the region *)
  (* Log-tail serialization: reserving a slot + sequence number holds the
     tail, like PMFS's journal lock around the tail-pointer bump. The
     reservation is instantaneous unless the log is under pressure and has
     to checkpoint retired transactions inline — per-shard logs shrink
     that pressure. Uncontended acquisition costs nothing. *)
  tail : Hinfs_sim.Resource.t;
  capacity : int; (* number of entry slots *)
  slot_free : Bytes.t; (* per slot: '\001' when free *)
  mutable free_slots : int;
  mutable cursor : int; (* next-fit slot scan position *)
  mutable next_txn : int;
  mutable next_seq : int;
  mutable live_txns : int;
  mutable pool : book; (* books nothing holds *)
  (* background log cleaner (PMFS's pmfs_clean_journal runs in a kthread;
     checkpointing entries off the critical path is what keeps commit
     latency low): a ring of retired transactions, oldest first, each a
     book, how many of its data slots to clear, a superseded entry to
     clear with them (or -1) and the closing entry *)
  mutable q_book : book array;
  mutable q_slots : int array;
  mutable q_extra : int array;
  mutable q_closing : int array;
  mutable q_head : int;
  mutable q_len : int;
  mutable cleaner : Condvar.t option;
  mutable stop_cleaner : bool;
  (* statistics *)
  mutable txns_committed : int;
  mutable entries_written : int;
  (* operation-level fault hook: [true] = fail this slot allocation *)
  mutable injector : (unit -> bool) option;
  (* returns a number a transaction owned to its allocator *)
  mutable reclaim : resource -> int -> unit;
}

let cat = Stats.Journal

let create device ~first_block ~blocks =
  let config = Device.config device in
  let block_size = config.Config.block_size in
  if blocks <= 0 then invalid_arg "Cacheline_log.create: empty region";
  let base = first_block * block_size in
  let capacity = blocks * block_size / entry_size in
  {
    device;
    base;
    tail =
      Hinfs_sim.Resource.create
        ~name:(Printf.sprintf "journal-tail@%d" first_block)
        ~capacity:1;
    capacity;
    slot_free = Bytes.make capacity '\001';
    free_slots = capacity;
    cursor = 0;
    next_txn = 1;
    next_seq = 1;
    live_txns = 0;
    pool = nil;
    q_book = Array.make 8 nil;
    q_slots = Array.make 8 0;
    q_extra = Array.make 8 0;
    q_closing = Array.make 8 0;
    q_head = 0;
    q_len = 0;
    cleaner = None;
    stop_cleaner = false;
    txns_committed = 0;
    entries_written = 0;
    injector = None;
    reclaim = (fun _ _ -> invalid_arg "Cacheline_log: no reclaim hook");
  }

let set_fault_injector t f = t.injector <- f
let set_reclaim t f = t.reclaim <- f

(* Drop one hold on [b]; the last returns it to the pool. *)
let release_book t b =
  b.holds <- b.holds - 1;
  if b.holds = 0 then begin
    reset_book b;
    b.next <- t.pool;
    t.pool <- b
  end

let take_book t =
  let b = t.pool in
  let b =
    if b == nil then make_book ()
    else begin
      t.pool <- b.next;
      b
    end
  in
  b.next <- nil;
  b.holds <- 1;
  b

let enqueue_clean t b ~slots ~extra ~closing =
  let cap = Array.length t.q_book in
  if t.q_len = cap then begin
    let grow a x =
      Array.init (2 * cap) (fun i ->
          if i < cap then a.((t.q_head + i) mod cap) else x)
    in
    t.q_book <- grow t.q_book nil;
    t.q_slots <- grow t.q_slots 0;
    t.q_extra <- grow t.q_extra 0;
    t.q_closing <- grow t.q_closing 0;
    t.q_head <- 0
  end;
  let i = (t.q_head + t.q_len) mod Array.length t.q_book in
  b.holds <- b.holds + 1;
  t.q_book.(i) <- b;
  t.q_slots.(i) <- slots;
  t.q_extra.(i) <- extra;
  t.q_closing.(i) <- closing;
  t.q_len <- t.q_len + 1

(* Take the oldest clean item off the ring: its slot is [q_head] before
   the call. *)
let dequeue_clean t =
  let i = t.q_head in
  let b = t.q_book.(i) in
  t.q_book.(i) <- nil;
  t.q_head <- (i + 1) mod Array.length t.q_book;
  t.q_len <- t.q_len - 1;
  b

(* Re-arm a live log handle after its on-media region was recovered and
   wiped out-of-band (the online repair pass runs {!recover} over
   the region while the mount holds this [t]). All slots are free again;
   pending-clean work refers to entries the wipe already zeroed, so it is
   dropped rather than replayed. Caller must ensure no live transactions
   ([live_txns t = 0]) — repair drains live transactions first. *)
let reset_runtime t =
  if t.live_txns > 0 then
    invalid_arg "Cacheline_log.reset_runtime: live transactions";
  Bytes.fill t.slot_free 0 t.capacity '\001';
  t.free_slots <- t.capacity;
  t.cursor <- 0;
  while t.q_len > 0 do
    release_book t (dequeue_clean t)
  done

let capacity t = t.capacity
let free_slots t = t.free_slots
let live_txns t = t.live_txns
let txns_committed t = t.txns_committed
let entries_written t = t.entries_written

let slot_addr t slot = t.base + (slot * entry_size)

let release_slot t slot =
  Bytes.set t.slot_free slot '\001';
  t.free_slots <- t.free_slots + 1

let zero_entry = Bytes.make entry_size '\000'

(* Clear a slot's valid flag on the medium and free it. *)
let clear_slot ?(background = false) t slot =
  let addr = slot_addr t slot in
  Device.write_cached t.device ~cat ~addr ~src:zero_entry ~off:0
    ~len:entry_size;
  Device.clflush ~background t.device ~cat ~addr ~len:entry_size;
  release_slot t slot

(* Zero a retired transaction's entries on the medium and free the slots:
   data entries first ([extra], an epoch entry a commit superseded, then
   the first [slots] data entries newest-first), fence, then the closing
   entry, so a crash can never expose data entries without their commit. *)
let clean_txn ?background t b ~slots ~extra ~closing =
  if extra >= 0 then clear_slot ?background t extra;
  for i = slots - 1 downto 0 do
    clear_slot ?background t b.slots.(i)
  done;
  Device.mfence t.device ~cat;
  clear_slot ?background t closing;
  Device.mfence t.device ~cat

let drain_pending ?background t =
  while t.q_len > 0 do
    let i = t.q_head in
    let slots = t.q_slots.(i) and extra = t.q_extra.(i) in
    let closing = t.q_closing.(i) in
    let b = dequeue_clean t in
    clean_txn ?background t b ~slots ~extra ~closing;
    release_book t b
  done

let alloc_slot t =
  (* Injected failures look exactly like a full journal, so callers
     exercise their genuine backpressure/abort paths. *)
  (match t.injector with
  | Some f when f () -> raise Journal_full
  | _ -> ());
  (* Under pressure, checkpoint retired transactions inline (PMFS also
     kicks its cleaner synchronously when the log fills). *)
  if t.free_slots = 0 then drain_pending t;
  if t.free_slots = 0 then raise Journal_full;
  let rec scan i remaining =
    if remaining = 0 then raise Journal_full
    else if Bytes.get t.slot_free i = '\001' then begin
      Bytes.set t.slot_free i '\000';
      t.free_slots <- t.free_slots - 1;
      t.cursor <- (i + 1) mod t.capacity;
      i
    end
    else scan ((i + 1) mod t.capacity) (remaining - 1)
  in
  scan t.cursor t.capacity

let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  t.live_txns <- t.live_txns + 1;
  { id; book = take_book t; committed = false }

let txn_committed txn = txn.committed

(* --- allocation lifetime ---

   A transaction owns the numbers allocated under it and those it
   releases. Abort hands the allocations back: nothing committed points
   at them. Commit hands the releases back: before it, an abort could
   restore pointers to them, and a number re-issued in between would be
   reachable twice. Each hand-back runs at the end of [abort] or of the
   commit (after its checkpoint), where no yield separates it from the
   caller: the allocators are lowest-free-first, so a free moved across a
   yield would change which number the next allocation gets. *)

let own txn ~release r n =
  let b = txn.book in
  if b != nil then
    push_owned b
      ((4 * n)
      + (if release then 2 else 0)
      + match r with Block -> 0 | Inode -> 1)

let allocated txn r n = own txn ~release:false r n
let released txn r n = own txn ~release:true r n

(* The allocations or the releases, newest first: the blocks, then the
   inodes. *)
let hand_back t b ~release =
  let kind = if release then 2 else 0 in
  let each r bit =
    for i = b.nowned - 1 downto 0 do
      let c = b.owned.(i) in
      if c land 3 = kind + bit then t.reclaim r (c lsr 2)
    done
  in
  each Block 0;
  each Inode 1

(* Build one entry image: checksum set before the valid flag, so a record
   is only ever valid-with-CRC (single-cacheline writes are not reordered
   internally, the same guarantee the valid flag already relies on). *)
let encode_entry ~txn_id ~seq ~entry_type ~addr ~payload =
  if Bytes.length payload > payload_capacity then
    invalid_arg "Cacheline_log.encode_entry: payload too large";
  let entry = Bytes.make entry_size '\000' in
  Bytes.set_int64_le entry 0 (Int64.of_int addr);
  Bytes.set_int32_le entry 8 (Int32.of_int txn_id);
  Bytes.set_int32_le entry 12 (Int32.of_int seq);
  Bytes.set_uint16_le entry 16 (Bytes.length payload);
  Bytes.set_uint8 entry 18 entry_type;
  Bytes.blit payload 0 entry 19 (Bytes.length payload);
  Bytes.set_int32_le entry crc_off
    (Int32.of_int (Crc32c.digest entry ~off:0 ~len:crc_off));
  Bytes.set_uint8 entry 63 valid_magic;
  entry

let entry_crc_ok raw =
  let stored =
    Int32.to_int (Bytes.get_int32_le raw crc_off) land 0xFFFFFFFF
  in
  stored = Crc32c.digest raw ~off:0 ~len:crc_off

(* Append one entry and persist it (write line, clflush, fence). Only the
   tail reservation (slot grab + sequence number) holds the log tail —
   PMFS's journal lock likewise covers just the tail-pointer bump, not the
   entry stores. The persist goes to the reserved slot's private cacheline,
   so appenders only serialize when the log is under pressure and a
   reservation has to checkpoint retired transactions inline. *)
let write_entry t ~txn_id ~entry_type ~addr ~payload =
  let slot, seq =
    Hinfs_sim.Resource.with_resource t.tail 1 (fun () ->
        let slot = alloc_slot t in
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        (slot, seq))
  in
  let entry = encode_entry ~txn_id ~seq ~entry_type ~addr ~payload in
  let entry_addr = slot_addr t slot in
  Device.write_cached t.device ~cat ~addr:entry_addr ~src:entry ~off:0
    ~len:entry_size;
  Device.clflush t.device ~cat ~addr:entry_addr ~len:entry_size;
  Device.mfence t.device ~cat;
  t.entries_written <- t.entries_written + 1;
  slot

(* Log the current (pre-update) contents of [addr, addr+len) so they can be
   restored if the transaction does not commit. Must be called before the
   in-place update. *)
let log t txn ~addr ~len =
  if txn.committed then invalid_arg "Cacheline_log.log: txn already committed";
  if len < 0 then invalid_arg "Cacheline_log.log: negative length";
  (* Re-logging a range inside one transaction is redundant: undo entries
     are applied newest-first, so the oldest (first) logged value wins
     regardless. Skipping duplicates keeps long-lived ordered transactions
     (HiNFS pending txns) from exhausting the log. *)
  if len > 0 && not (Itbl.mem txn.book.logged (range_key addr len)) then begin
    Itbl.replace txn.book.logged (range_key addr len) ();
    let off = ref 0 in
    while !off < len do
      let chunk = min payload_capacity (len - !off) in
      let old = Device.peek t.device ~addr:(addr + !off) ~len:chunk in
      let slot =
        write_entry t ~txn_id:txn.id ~entry_type:type_data
          ~addr:(addr + !off) ~payload:old
      in
      (* Read the book after the append: the transaction may have ended
         while it waited. *)
      if txn.book != nil then push_slot txn.book slot;
      off := !off + chunk
    done;
    if txn.book != nil then push_range txn.book addr len
  end

(* The step commit and the epoch path share: persist the in-place updates
   the transaction covers, newest range first, then append its closing
   entry. *)
let seal t txn b ~entry_type ~payload =
  for i = b.nranges - 1 downto 0 do
    Device.clflush t.device ~cat ~addr:b.ranges.(2 * i)
      ~len:b.ranges.((2 * i) + 1)
  done;
  Device.mfence t.device ~cat;
  write_entry t ~txn_id:txn.id ~entry_type ~addr:0 ~payload

(* The transaction is durable: mark it committed and checkpoint its
   entries — handed to the background cleaner when one is running, else
   cleaned inline. [b] is the book the commit started with. *)
let retire t txn b ~extra ~closing =
  txn.committed <- true;
  t.txns_committed <- t.txns_committed + 1;
  t.live_txns <- t.live_txns - 1;
  match t.cleaner with
  | Some cv ->
    enqueue_clean t b ~slots:b.nslots ~extra ~closing;
    ignore (Condvar.signal cv)
  | None -> clean_txn t b ~slots:b.nslots ~extra ~closing

(* A commit holds the transaction's book from its start to its end. Two
   commits of one transaction can overlap (both passed the committed check
   before either retired it): each then retires, cleans and hands back the
   entries the transaction holds at that point, and the transaction keeps
   its book until the last of them ends. *)
let hold txn =
  let b = txn.book in
  b.holds <- b.holds + 1;
  b.commits <- b.commits + 1;
  b

let unhold t b =
  b.commits <- b.commits - 1;
  release_book t b

(* The committed transaction's releases go back, and the commit lets go of
   the book; the last commit in flight detaches it from the transaction. *)
let finish t txn b =
  hand_back t b ~release:true;
  if b.commits = 1 && txn.book == b then begin
    txn.book <- nil;
    release_book t b
  end;
  unhold t b

let commit t txn =
  if txn.committed then
    invalid_arg "Cacheline_log.commit: txn already committed";
  let b = hold txn in
  Obs.with_span Obs.Journal_commit (fun () ->
      let commit_slot =
        match seal t txn b ~entry_type:type_commit ~payload:Bytes.empty with
        | slot -> slot
        | exception e ->
          unhold t b;
          raise e
      in
      (* A transaction prepared for an epoch that then failed to land,
         and is now committed the ordinary way (a retried HiNFS pending
         transaction), still has a valid epoch entry on the medium: clean
         it with the rest. *)
      retire t txn b ~extra:b.epoch_slot ~closing:commit_slot;
      finish t txn b)

(* --- epoch-based cross-shard commit ---

   A cross-shard operation holds one transaction per touched shard. Each
   is prepared: its in-place updates are persisted and an epoch-commit
   entry carrying the shared epoch id is appended — but the transaction
   is NOT yet durable. Then the epoch record is persisted (a
   single-cacheline store, the atomic commit point) and every
   participant is retired. A crash before the record lands rolls every
   participant back at recovery; a crash after keeps them all. *)

let commit_group epoch ~id parts =
  let payload = Bytes.create 8 in
  Bytes.set_int64_le payload 0 (Int64.of_int id);
  let held = ref [] in
  let books =
    try
      List.iter
        (fun (t, txn) ->
          if txn.committed || txn.book.epoch_slot >= 0 then
            invalid_arg "Cacheline_log.commit_group: txn committed or prepared";
          let b = hold txn in
          held := (t, b) :: !held;
          b.epoch_slot <- seal t txn b ~entry_type:type_epoch_commit ~payload)
        parts;
      Epoch.commit epoch id;
      List.rev_map snd !held
    with e ->
      List.iter (fun (t, b) -> unhold t b) !held;
      raise e
  in
  List.iter2
    (fun (t, txn) b -> retire t txn b ~extra:(-1) ~closing:b.epoch_slot)
    parts books;
  List.iter2 (fun (t, txn) b -> finish t txn b) parts books

(* Abort: restore old contents (volatile first, then persisted) and clear
   the entries. Used on ENOSPC-style failure paths. *)
let abort t txn =
  if txn.committed then invalid_arg "Cacheline_log.abort: txn committed";
  let b = txn.book in
  (* Undo newest-first so the oldest logged value lands last. *)
  for i = b.nslots - 1 downto 0 do
    let raw =
      Device.peek t.device ~addr:(slot_addr t b.slots.(i)) ~len:entry_size
    in
    let addr = Int64.to_int (Bytes.get_int64_le raw 0) in
    let len = Bytes.get_uint16_le raw 16 in
    let payload = Bytes.sub raw 19 len in
    Device.write_cached t.device ~cat ~addr ~src:payload ~off:0 ~len;
    Device.clflush t.device ~cat ~addr ~len
  done;
  Device.mfence t.device ~cat;
  for i = b.nslots - 1 downto 0 do
    clear_slot t b.slots.(i)
  done;
  (* A prepared-but-never-committed epoch entry (the epoch record did not
     land) is dead weight: clear it with the data entries. *)
  if b.epoch_slot >= 0 then begin
    clear_slot t b.epoch_slot;
    b.epoch_slot <- -1
  end;
  (* Order the cleared slots before anything that follows the abort: without
     this fence a crash can persist a later transaction's update yet still
     hold this transaction's (aborted) undo entries, and recovery would roll
     the later committed value back. *)
  Device.mfence t.device ~cat;
  t.live_txns <- t.live_txns - 1;
  hand_back t b ~release:false;
  (* The transaction stays open to stray use after an abort, on a book of
     its own; its pooled one goes back. *)
  txn.book <- make_book ();
  release_book t b

(* --- background cleaner lifecycle --- *)

(* Spawn the log-cleaner process (call from inside a simulation process).
   It checkpoints committed transactions' entries with background-priority
   NVMM writes, keeping the commit path short. *)
let start_cleaner t =
  if t.cleaner <> None then invalid_arg "Cacheline_log: cleaner running";
  let cv = Condvar.create (Device.engine t.device) in
  t.cleaner <- Some cv;
  Proc.spawn ~name:"journal-cleaner" (fun () ->
      let rec loop () =
        if not t.stop_cleaner then begin
          if t.q_len = 0 then
            ignore (Condvar.wait_timeout cv ~timeout:100_000_000L);
          drain_pending ~background:true t;
          loop ()
        end
      in
      loop ())

(* Stop the cleaner and checkpoint whatever is still queued (unmount must
   leave no stale valid entries on the medium). *)
let stop_cleaner t =
  (match t.cleaner with
  | Some cv ->
    t.stop_cleaner <- true;
    ignore (Condvar.broadcast cv);
    t.cleaner <- None
  | None -> ());
  drain_pending t

(* --- recovery ---

   Runs at mount time on the persistent image (untimed: mount-time work is
   not part of any measured figure). Reports the transactions rolled back
   and the records dropped because they could not be trusted. *)

type recovery = {
  rolled_back : int; (* uncommitted transactions undone *)
  dropped : int; (* slots discarded: poisoned line or checksum mismatch *)
}

type recovered_entry = {
  r_slot : int;
  r_addr : int;
  r_txn : int;
  r_seq : int;
  r_len : int;
  r_type : int;
  r_payload : Bytes.t;
}

let recover_body device ~first_block ~blocks ~committed_epoch =
  let config = Device.config device in
  let block_size = config.Config.block_size in
  let base = first_block * block_size in
  let capacity = blocks * block_size / entry_size in
  let stats = Device.stats device in
  let entries = ref [] in
  let dropped = ref 0 in
  for slot = 0 to capacity - 1 do
    let addr = base + (slot * entry_size) in
    if Device.verify_range device ~addr ~len:entry_size <> [] then
      (* Poisoned journal line: whatever it held is unreadable. Counted as
         dropped conservatively (an empty slot and a lost record cannot be
         told apart); the region wipe below rewrites — and so heals — it. *)
      incr dropped
    else begin
      let raw = Device.peek_persistent device ~addr ~len:entry_size in
      if Bytes.get_uint8 raw 63 = valid_magic then begin
        if not (entry_crc_ok raw) then begin
          (* Torn or corrupt record: never trusted, never applied. *)
          Hinfs_stats.Stats.add_crc_mismatch stats;
          incr dropped
        end
        else
          entries :=
            {
              r_slot = slot;
              r_addr = Int64.to_int (Bytes.get_int64_le raw 0);
              r_txn = Int32.to_int (Bytes.get_int32_le raw 8);
              r_seq = Int32.to_int (Bytes.get_int32_le raw 12);
              r_len = Bytes.get_uint16_le raw 16;
              r_type = Bytes.get_uint8 raw 18;
              r_payload = Bytes.sub raw 19 (Bytes.get_uint16_le raw 16);
            }
            :: !entries
      end
    end
  done;
  (* A transaction is committed if it carries a plain commit entry, or an
     epoch-commit entry whose epoch the persistent epoch record covers. *)
  let epoch_of e =
    if e.r_len >= 8 then Int64.to_int (Bytes.get_int64_le e.r_payload 0)
    else max_int
  in
  let commits_txn e =
    e.r_type = type_commit
    || (e.r_type = type_epoch_commit && epoch_of e <= committed_epoch)
  in
  let committed = Hashtbl.create 8 in
  List.iter
    (fun e -> if commits_txn e then Hashtbl.replace committed e.r_txn ())
    !entries;
  let to_undo =
    List.filter
      (fun e -> e.r_type = type_data && not (Hashtbl.mem committed e.r_txn))
      !entries
  in
  (* Apply undo payloads newest-first: the oldest value wins. The stores
     are recorded ([poke_flushed]) so a crash *during* recovery is
     enumerable; they are also idempotent — each payload is an absolute old
     value, so a re-crashed re-recovery that replays them lands on the same
     image. *)
  let ordered =
    List.sort (fun a b -> compare b.r_seq a.r_seq) to_undo
  in
  List.iter
    (fun e ->
      Device.poke_flushed device ~addr:e.r_addr ~src:e.r_payload ~off:0
        ~len:e.r_len)
    ordered;
  (* Undo data is ordered before any journal wipe: a re-crash after this
     fence still finds every entry intact and re-runs the same rollback. *)
  Device.fence_untimed device;
  (* Wipe the journal region in fenced passes. Two hazards bound the order:
     a commit entry must never disappear while data entries are still on
     the medium (a re-crash in the middle of a single-pass wipe could keep
     a committed transaction's data entries but lose its commit entry, and
     the next recovery would roll the committed transaction back); and when
     one transaction logged overlapping ranges of the same address, an
     older entry must never be wiped while a newer one survives — the
     survivors' newest-first replay would end on the newer (intermediate)
     value instead of the original. So: the data entries go first, strictly
     newest-first with a fence per entry, making the surviving subset an
     oldest-suffix per address at every crash point; then the rest of the
     region (healing poisoned and torn slots) with the commit entries
     preserved; then, once no data entry can survive, the commit entries
     themselves. *)
  let data_entries =
    List.sort
      (fun a b -> compare b.r_seq a.r_seq)
      (List.filter (fun e -> e.r_type = type_data) !entries)
  in
  let zero_entry = Bytes.make entry_size '\000' in
  List.iter
    (fun e ->
      Device.poke_flushed device
        ~addr:(base + (e.r_slot * entry_size))
        ~src:zero_entry ~off:0 ~len:entry_size;
      Device.fence_untimed device)
    data_entries;
  (* Slots that must outlive the data entries: plain commit entries and
     the epoch-commit entries of committed transactions. (An uncommitted
     epoch entry carries no undo and confers no commit, so losing it to
     the region wipe at any point is harmless either way.) *)
  let commit_slots = Hashtbl.create 8 in
  List.iter
    (fun e -> if commits_txn e then Hashtbl.replace commit_slots e.r_slot ())
    !entries;
  let zero_block = Bytes.make block_size '\000' in
  let slots_per_block = block_size / entry_size in
  for b = 0 to blocks - 1 do
    let img =
      if Hashtbl.length commit_slots = 0 then zero_block
      else begin
        let img = Bytes.make block_size '\000' in
        for s = 0 to slots_per_block - 1 do
          let slot = (b * slots_per_block) + s in
          if Hashtbl.mem commit_slots slot then
            Bytes.blit
              (Device.peek_persistent device
                 ~addr:(base + (slot * entry_size))
                 ~len:entry_size)
              0 img (s * entry_size) entry_size
        done;
        img
      end
    in
    Device.poke_flushed device
      ~addr:((first_block + b) * block_size)
      ~src:img ~off:0 ~len:block_size
  done;
  Device.fence_untimed device;
  (* Second pass: no data entry survives, so the commit entries can go. *)
  Hashtbl.fold (fun slot () acc -> slot :: acc) commit_slots []
  |> List.sort compare
  |> List.iter (fun slot ->
         Device.poke_flushed device
           ~addr:(base + (slot * entry_size))
           ~src:zero_entry ~off:0 ~len:entry_size);
  Device.fence_untimed device;
  let rolled_back = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace rolled_back e.r_txn ()) to_undo;
  { rolled_back = Hashtbl.length rolled_back; dropped = !dropped }

let recover device ?(committed_epoch = 0) ~first_block ~blocks () =
  Obs.with_span Obs.Journal_recover (fun () ->
      recover_body device ~first_block ~blocks ~committed_epoch)

(* Fsck helper: number of valid entries currently on the medium in the
   journal region. Immediately after recovery (and after clean unmount)
   this must be zero. *)
let count_valid_entries device ~first_block ~blocks =
  let config = Device.config device in
  let block_size = config.Config.block_size in
  let base = first_block * block_size in
  let capacity = blocks * block_size / entry_size in
  let n = ref 0 in
  for slot = 0 to capacity - 1 do
    let raw =
      Device.peek_persistent device ~addr:(base + (slot * entry_size))
        ~len:entry_size
    in
    if Bytes.get_uint8 raw 63 = valid_magic then incr n
  done;
  !n

(* Run [f] inside a transaction; aborts on exception — including one
   raised by [commit] itself before the commit entry lands (e.g. an
   injected journal-slot failure while appending it): the undo entries are
   still valid, so the abort restores the pre-transaction state. *)
let with_txn t f =
  let txn = begin_txn t in
  match f txn with
  | result ->
    (try commit t txn
     with e ->
       if not txn.committed then abort t txn;
       raise e);
    result
  | exception e ->
    if not txn.committed then abort t txn;
    raise e
