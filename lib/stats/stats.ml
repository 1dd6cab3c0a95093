(* Measurement sink for one experiment run.

   The figures of the paper are computed from these accumulators:
   - Fig 1:  time by {Read_access, Write_access, Other}
   - Fig 2:  fsync_bytes vs user_bytes_written
   - Fig 6:  benefit-model prediction accuracy
   - Fig 9b: nvmm_bytes_written (foreground + background)
   - Fig 12: time by op class {read, write, unlink, fsync}
   All times are virtual nanoseconds. *)

type category =
  | Read_access (* copying data to the user buffer *)
  | Write_access (* copying data from the user buffer to DRAM/NVMM *)
  | Journal (* journaling (undo log / jbd) work *)
  | Block_layer (* generic block layer overhead *)
  | Other (* syscall entry, allocation, index maintenance, ... *)

let categories = [ Read_access; Write_access; Journal; Block_layer; Other ]

let category_name = function
  | Read_access -> "read-access"
  | Write_access -> "write-access"
  | Journal -> "journal"
  | Block_layer -> "block-layer"
  | Other -> "other"

type op_class = Read_op | Write_op | Unlink_op | Fsync_op

type t = {
  mutable time_by_category : int64 array; (* indexed by category *)
  mutable time_by_op : int64 array; (* indexed by op_class *)
  (* byte accounting *)
  mutable user_bytes_read : int64;
  mutable user_bytes_written : int64;
  mutable fsync_bytes : int64; (* user bytes persisted eagerly *)
  mutable nvmm_bytes_written : int64; (* total bytes stored to NVMM *)
  mutable nvmm_bytes_written_bg : int64; (* subset written by daemons *)
  mutable nvmm_bytes_read : int64;
  (* HiNFS buffer behaviour *)
  mutable buffer_write_hits : int;
  mutable buffer_write_misses : int;
  mutable buffer_read_hits : int;
  mutable buffer_read_misses : int;
  mutable coalesced_cacheline_writes : int64;
  mutable writeback_stalls : int;
  mutable evictions : int;
  mutable dead_block_drops : int; (* buffered blocks freed by unlink *)
  (* benefit model accuracy (Fig 6) *)
  mutable bbm_predictions : int;
  mutable bbm_correct : int;
  mutable eager_writes : int;
  mutable lazy_writes : int;
  (* persistence instruction counts, indexed by category *)
  mutable clflush_issued : int array; (* cachelines covered by clflush *)
  mutable clflush_dirty : int array; (* of those, lines actually written *)
  mutable mfences : int array;
  (* media-fault accounting *)
  mutable media_faults_transient : int; (* transient read faults delivered *)
  mutable media_faults_poison : int; (* loads that hit a poisoned line *)
  mutable media_retries : int; (* read retries after transient faults *)
  mutable scrub_repairs : int; (* lines/structures repaired by the scrubber *)
  mutable crc_mismatches : int; (* metadata checksum failures detected *)
  (* mount-time recovery accounting *)
  mutable recoveries : int; (* unclean mounts that ran log recovery *)
  mutable recovered_txns : int; (* uncommitted transactions rolled back *)
  mutable recovery_dropped : int; (* journal entries dropped as unusable *)
  (* block-tier request accounting (NVMMBD) *)
  mutable block_read_requests : int;
  mutable block_write_requests : int;
  mutable block_absorbed_writes : int; (* absorbed by a cache tier, no bio *)
}

let category_index = function
  | Read_access -> 0
  | Write_access -> 1
  | Journal -> 2
  | Block_layer -> 3
  | Other -> 4

let op_index = function
  | Read_op -> 0
  | Write_op -> 1
  | Unlink_op -> 2
  | Fsync_op -> 3

let create () =
  {
    time_by_category = Array.make 5 0L;
    time_by_op = Array.make 4 0L;
    user_bytes_read = 0L;
    user_bytes_written = 0L;
    fsync_bytes = 0L;
    nvmm_bytes_written = 0L;
    nvmm_bytes_written_bg = 0L;
    nvmm_bytes_read = 0L;
    buffer_write_hits = 0;
    buffer_write_misses = 0;
    buffer_read_hits = 0;
    buffer_read_misses = 0;
    coalesced_cacheline_writes = 0L;
    writeback_stalls = 0;
    evictions = 0;
    dead_block_drops = 0;
    bbm_predictions = 0;
    bbm_correct = 0;
    eager_writes = 0;
    lazy_writes = 0;
    clflush_issued = Array.make 5 0;
    clflush_dirty = Array.make 5 0;
    mfences = Array.make 5 0;
    media_faults_transient = 0;
    media_faults_poison = 0;
    media_retries = 0;
    scrub_repairs = 0;
    crc_mismatches = 0;
    recoveries = 0;
    recovered_txns = 0;
    recovery_dropped = 0;
    block_read_requests = 0;
    block_write_requests = 0;
    block_absorbed_writes = 0;
  }

let reset t =
  let fresh = create () in
  t.time_by_category <- fresh.time_by_category;
  t.time_by_op <- fresh.time_by_op;
  t.user_bytes_read <- 0L;
  t.user_bytes_written <- 0L;
  t.fsync_bytes <- 0L;
  t.nvmm_bytes_written <- 0L;
  t.nvmm_bytes_written_bg <- 0L;
  t.nvmm_bytes_read <- 0L;
  t.buffer_write_hits <- 0;
  t.buffer_write_misses <- 0;
  t.buffer_read_hits <- 0;
  t.buffer_read_misses <- 0;
  t.coalesced_cacheline_writes <- 0L;
  t.writeback_stalls <- 0;
  t.evictions <- 0;
  t.dead_block_drops <- 0;
  t.bbm_predictions <- 0;
  t.bbm_correct <- 0;
  t.eager_writes <- 0;
  t.lazy_writes <- 0;
  t.clflush_issued <- fresh.clflush_issued;
  t.clflush_dirty <- fresh.clflush_dirty;
  t.mfences <- fresh.mfences;
  t.media_faults_transient <- 0;
  t.media_faults_poison <- 0;
  t.media_retries <- 0;
  t.scrub_repairs <- 0;
  t.crc_mismatches <- 0;
  t.recoveries <- 0;
  t.recovered_txns <- 0;
  t.recovery_dropped <- 0;
  t.block_read_requests <- 0;
  t.block_write_requests <- 0;
  t.block_absorbed_writes <- 0

(* --- time --- *)

let add_time t cat ns =
  let i = category_index cat in
  t.time_by_category.(i) <- Int64.add t.time_by_category.(i) ns

let time t cat = t.time_by_category.(category_index cat)

let total_time t = Array.fold_left Int64.add 0L t.time_by_category

let add_op_time t op ns =
  let i = op_index op in
  t.time_by_op.(i) <- Int64.add t.time_by_op.(i) ns

let op_time t op = t.time_by_op.(op_index op)

(* --- bytes --- *)

let add_user_read t n = t.user_bytes_read <- Int64.add t.user_bytes_read (Int64.of_int n)
let add_user_written t n = t.user_bytes_written <- Int64.add t.user_bytes_written (Int64.of_int n)
let add_fsync_bytes t n = t.fsync_bytes <- Int64.add t.fsync_bytes (Int64.of_int n)

let add_nvmm_written ?(background = false) t n =
  t.nvmm_bytes_written <- Int64.add t.nvmm_bytes_written (Int64.of_int n);
  if background then
    t.nvmm_bytes_written_bg <- Int64.add t.nvmm_bytes_written_bg (Int64.of_int n)

let add_nvmm_read t n = t.nvmm_bytes_read <- Int64.add t.nvmm_bytes_read (Int64.of_int n)

let user_bytes_read t = t.user_bytes_read
let user_bytes_written t = t.user_bytes_written
let fsync_bytes t = t.fsync_bytes
let nvmm_bytes_written t = t.nvmm_bytes_written
let nvmm_bytes_written_bg t = t.nvmm_bytes_written_bg
let nvmm_bytes_read t = t.nvmm_bytes_read

let fsync_byte_ratio t =
  if Int64.compare t.user_bytes_written 0L <= 0 then 0.0
  else Int64.to_float t.fsync_bytes /. Int64.to_float t.user_bytes_written

(* --- buffer behaviour --- *)

let buffer_write_hit t = t.buffer_write_hits <- t.buffer_write_hits + 1
let buffer_write_miss t = t.buffer_write_misses <- t.buffer_write_misses + 1
let buffer_read_hit t = t.buffer_read_hits <- t.buffer_read_hits + 1
let buffer_read_miss t = t.buffer_read_misses <- t.buffer_read_misses + 1
let writeback_stall t = t.writeback_stalls <- t.writeback_stalls + 1
let eviction t = t.evictions <- t.evictions + 1
let dead_block_drop t n = t.dead_block_drops <- t.dead_block_drops + n

let add_coalesced_cachelines t n =
  t.coalesced_cacheline_writes <-
    Int64.add t.coalesced_cacheline_writes (Int64.of_int n)

let buffer_write_hits t = t.buffer_write_hits
let buffer_write_misses t = t.buffer_write_misses
let buffer_read_hits t = t.buffer_read_hits
let buffer_read_misses t = t.buffer_read_misses
let writeback_stalls t = t.writeback_stalls
let evictions t = t.evictions
let dead_block_drops t = t.dead_block_drops
let coalesced_cacheline_writes t = t.coalesced_cacheline_writes

let buffer_write_hit_ratio t =
  let total = t.buffer_write_hits + t.buffer_write_misses in
  if total = 0 then 0.0 else float_of_int t.buffer_write_hits /. float_of_int total

(* --- benefit model --- *)

let bbm_prediction t ~correct =
  t.bbm_predictions <- t.bbm_predictions + 1;
  if correct then t.bbm_correct <- t.bbm_correct + 1

let bbm_accuracy t =
  if t.bbm_predictions = 0 then 1.0
  else float_of_int t.bbm_correct /. float_of_int t.bbm_predictions

let bbm_predictions t = t.bbm_predictions

let eager_write t = t.eager_writes <- t.eager_writes + 1
let lazy_write t = t.lazy_writes <- t.lazy_writes + 1
let eager_writes t = t.eager_writes
let lazy_writes t = t.lazy_writes

(* --- persistence instructions --- *)

let add_clflush t cat ~lines ~dirty =
  let i = category_index cat in
  t.clflush_issued.(i) <- t.clflush_issued.(i) + lines;
  t.clflush_dirty.(i) <- t.clflush_dirty.(i) + dirty

let add_mfence t cat =
  let i = category_index cat in
  t.mfences.(i) <- t.mfences.(i) + 1

(* --- media faults --- *)

let add_media_fault t ~transient =
  if transient then
    t.media_faults_transient <- t.media_faults_transient + 1
  else t.media_faults_poison <- t.media_faults_poison + 1

let add_media_retry t = t.media_retries <- t.media_retries + 1
let add_scrub_repair ?(n = 1) t = t.scrub_repairs <- t.scrub_repairs + n
let add_crc_mismatch t = t.crc_mismatches <- t.crc_mismatches + 1

let media_faults_transient t = t.media_faults_transient
let media_faults_poison t = t.media_faults_poison
let total_media_faults t = t.media_faults_transient + t.media_faults_poison
let media_retries t = t.media_retries
let scrub_repairs t = t.scrub_repairs
let crc_mismatches t = t.crc_mismatches

(* --- mount-time recovery --- *)

let add_recovery t ~rolled_back ~dropped =
  t.recoveries <- t.recoveries + 1;
  t.recovered_txns <- t.recovered_txns + rolled_back;
  t.recovery_dropped <- t.recovery_dropped + dropped

let recoveries t = t.recoveries
let recovered_txns t = t.recovered_txns
let recovery_dropped t = t.recovery_dropped

(* --- block-tier requests --- *)

let add_block_read t = t.block_read_requests <- t.block_read_requests + 1
let add_block_write t = t.block_write_requests <- t.block_write_requests + 1

let add_block_absorbed t =
  t.block_absorbed_writes <- t.block_absorbed_writes + 1

let block_read_requests t = t.block_read_requests
let block_write_requests t = t.block_write_requests
let block_absorbed_writes t = t.block_absorbed_writes

let clflush_issued t cat = t.clflush_issued.(category_index cat)
let clflush_dirty t cat = t.clflush_dirty.(category_index cat)
let mfences t cat = t.mfences.(category_index cat)
let total_clflush_issued t = Array.fold_left ( + ) 0 t.clflush_issued
let total_clflush_dirty t = Array.fold_left ( + ) 0 t.clflush_dirty
let total_mfences t = Array.fold_left ( + ) 0 t.mfences

(* --- reporting --- *)

let pp_breakdown ppf t =
  let total = total_time t in
  let pct ns =
    if Int64.compare total 0L <= 0 then 0.0
    else 100.0 *. Int64.to_float ns /. Int64.to_float total
  in
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun cat ->
      let ns = time t cat in
      Fmt.pf ppf "%-12s %12Ld ns  (%5.1f%%)@," (category_name cat) ns (pct ns))
    categories;
  Fmt.pf ppf "total        %12Ld ns@]" total
