(* The DRAM write buffer pool (paper §3.2).

   A fixed population of 4 KB DRAM blocks, each with a descriptor from its
   first [alloc] on (a mount that never fills its pool pays only for the
   blocks it used). Blocks in use are linked on the
   global LRW (Least Recently Written) list — front = least recently
   written, back = MRW — which the background writeback threads consume
   from the front. Free blocks sit on a free list.

   A block holds its data as the NVMM medium does (Device): a table of
   64 B cachelines, each either a value nobody writes — the medium's own
   line when it was fetched from home or written back, a fill line when
   it holds one byte value — or private to the block and written in place
   (the [own] bitmap). A store into a shared line first takes a private
   copy of it; a writeback hands the private lines to the medium and
   clears their [own] bits in the same step, so a clean block shares every
   line with its home instead of holding a second copy of it.

   The table itself is shared too while every line of the block is one
   fill line (a block never written holds the zero one): the block points
   at the device's fill table of that value, and owns a table only while
   its lines differ. Tables come from and go back to the device's spares
   ([Device.own_table], [settle_table], [release_table]), so a block
   turning uniform and back allocates nothing once they are warm. A
   device call that yields (a fetch, a writeback) works on the table it
   was handed when it resumes; the block owns that table and keeps it,
   however it changes meanwhile, until the call returns ([io]), exactly
   as a block with one table for life would.

   Each block carries its Cacheline Bitmaps:
   - [present]: lines with valid data in DRAM,
   - [dirty]:   lines awaiting writeback (dirty ⊆ present),
   - [home_valid]: lines of the NVMM home block that hold valid data (all
     set when the home block pre-existed; grows as lines are flushed). A
     block may only be freed once home_valid covers every line, so NVMM
     reads after eviction never see stale medium bytes;
   - [own]: lines private to the block.

   The bitmaps and the last-write time are 64-bit words, which an OCaml
   int cannot hold; a mutable [int64] field would take a fresh box at
   every update, stored into a descriptor that lives in the major heap,
   so each box would be promoted and die there. They live unboxed in the
   block's [bits] instead, read and updated only here, with the [int64]
   primitives (which the compiler keeps unboxed within this module). *)

module Dlist = Hinfs_structures.Dlist
module Device = Hinfs_nvmm.Device

type block = {
  id : int;
  mutable lines : Bytes.t array;
      (* the block's cachelines: private iff in [own]; a fill table, or a
         table the block owns *)
  node : int Dlist.node; (* membership in the LRW list (value = id) *)
  bits : Bytes.t; (* the words at the offsets below *)
  mutable ino : int;
  mutable fblock : int;
  mutable home : int; (* NVMM home block number *)
  mutable pinned : int; (* foreground use / in-flight writeback *)
  mutable in_use : bool;
  mutable io : int; (* device calls in flight on [lines] *)
}

let present_off = 0
let dirty_off = 8
let home_valid_off = 16
let own_off = 24
let last_written_off = 32

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let present b = get64 b.bits present_off
let dirty b = get64 b.bits dirty_off
let home_valid b = get64 b.bits home_valid_off
let own b = get64 b.bits own_off
let last_written b = get64 b.bits last_written_off
let is_dirty b = get64 b.bits dirty_off <> 0L
let clear_dirty b = set64 b.bits dirty_off 0L
let set_home_valid b lines = set64 b.bits home_valid_off lines

let add_present b lines =
  set64 b.bits present_off (Int64.logor (get64 b.bits present_off) lines)

let add_dirty b lines =
  let was_clean = get64 b.bits dirty_off = 0L in
  set64 b.bits dirty_off (Int64.logor (get64 b.bits dirty_off) lines);
  add_present b lines;
  was_clean && lines <> 0L

let clean_lines b lines =
  let pre = get64 b.bits dirty_off in
  let post = Int64.logand pre (Int64.lognot lines) in
  set64 b.bits dirty_off post;
  set64 b.bits home_valid_off
    (Int64.logor (get64 b.bits home_valid_off) lines);
  pre <> 0L && post = 0L

(* Descriptors are made on first [alloc]: [blocks] holds ids [0, made),
   growing by doubling, so an empty pool costs a few words whatever its
   capacity. Ids go out in the eager FIFO's order: never-made ids
   ascending (they sat at the front of that queue), then freed ids in the
   order they were freed. *)
type t = {
  dev : Device.t;
  capacity : int;
  mutable blocks : block array;
  mutable made : int;
  free : int Queue.t; (* freed ids *)
  lrw : int Dlist.t;
  mutable free_count : int;
}

let create dev ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: empty pool";
  {
    dev;
    capacity;
    blocks = [||];
    made = 0;
    free = Queue.create ();
    lrw = Dlist.create ();
    free_count = capacity;
  }

let capacity t = t.capacity
let free_count t = t.free_count
let used_count t = t.capacity - t.free_count

let block t id =
  if id < 0 || id >= t.made then invalid_arg "Buffer_pool.block: unknown id";
  t.blocks.(id)

let free_fraction t = float_of_int t.free_count /. float_of_int t.capacity

(* The next block in FIFO order: a new descriptor while some id was never
   handed out, else the block freed longest ago. *)
let take t =
  if t.made = t.capacity then
    Option.map (Array.get t.blocks) (Queue.take_opt t.free)
  else begin
    let id = t.made in
    let b =
      {
        id;
        lines = Device.fill_table t.dev '\000';
        node = Dlist.make_node id;
        bits = Bytes.make 40 '\000';
        ino = 0;
        fblock = 0;
        home = 0;
        pinned = 0;
        in_use = false;
        io = 0;
      }
    in
    if id = Array.length t.blocks then begin
      let grown = Array.make (Int.min t.capacity (max 16 (2 * id))) b in
      Array.blit t.blocks 0 grown 0 id;
      t.blocks <- grown
    end;
    t.blocks.(id) <- b;
    t.made <- id + 1;
    Some b
  end

(* Take a free block and bind it to (ino, fblock, home). *)
let alloc t ~ino ~fblock ~home ~now =
  match take t with
  | None -> None
  | Some b ->
    t.free_count <- t.free_count - 1;
    assert (not b.in_use);
    b.ino <- ino;
    b.fblock <- fblock;
    b.home <- home;
    set64 b.bits present_off 0L;
    set64 b.bits dirty_off 0L;
    set64 b.bits home_valid_off 0L;
    set64 b.bits last_written_off now;
    b.pinned <- 0;
    b.in_use <- true;
    Dlist.push_back t.lrw b.node;
    Some b

let free t b =
  if not b.in_use then invalid_arg "Buffer_pool.free: block not in use";
  if b.pinned > 0 then invalid_arg "Buffer_pool.free: block pinned";
  b.in_use <- false;
  (* Freed blocks must not pin dead medium lines. *)
  Device.release_table t.dev b.lines;
  b.lines <- Device.fill_table t.dev '\000';
  set64 b.bits own_off 0L;
  if Dlist.is_linked b.node then Dlist.remove t.lrw b.node;
  Queue.add b.id t.free;
  t.free_count <- t.free_count + 1

(* Record a write: the block moves to the MRW end. *)
let touch_written t b ~now =
  set64 b.bits last_written_off now;
  Dlist.move_to_back t.lrw b.node

(* Victim selection: the least recently written unpinned block. *)
let pick_victim t =
  let found = ref None in
  (try
     Dlist.iter t.lrw (fun id ->
         let b = t.blocks.(id) in
         if b.pinned = 0 then begin
           found := Some b;
           raise Exit
         end)
   with Exit -> ());
  !found

let lrw_ids t =
  let acc = ref [] in
  Dlist.iter t.lrw (fun id -> acc := id :: !acc);
  List.rev !acc

let private_lines t =
  let n = ref 0 in
  for id = 0 to t.made - 1 do
    n := !n + Clbitmap.count (own t.blocks.(id))
  done;
  !n

(* --- block data ---

   Every line a block stores into is private afterwards, except a whole
   line of one byte value, which becomes that value's fill line. A store
   into a private line writes it in place; into a shared one, it writes a
   copy (of the source, for a whole line). *)

let line_size b = Bytes.length b.lines.(0)

(* The block's table, made settable in place. *)
let owned_lines dev b =
  let lines = Device.own_table dev b.lines in
  b.lines <- lines;
  lines

(* A table of one fill line becomes its fill table, unless a device call
   is working on it. *)
let settle dev b = if b.io = 0 then b.lines <- Device.settle_table dev b.lines

let store dev b ~off ~src ~src_off ~len =
  let ls = line_size b and nlines = Array.length b.lines in
  let whole =
    if len = nlines * ls then Device.fill_of dev src ~off:src_off ~len
    else None
  in
  match whole with
  | Some fill ->
    Array.fill (owned_lines dev b) 0 nlines fill;
    set64 b.bits own_off 0L;
    settle dev b
  | None when len > 0 ->
    (* The lines that become fill lines and those that become private,
       as local words (no closure, so unboxed): one [own] update. *)
    let lines = owned_lines dev b in
    let own = get64 b.bits own_off in
    let filled = ref 0L and made = ref 0L in
    for i = off / ls to (off + len - 1) / ls do
      let lo = Int.max off (i * ls) in
      let k = Int.min (off + len) ((i + 1) * ls) - lo in
      let from = src_off + lo - off and bit = Int64.shift_left 1L i in
      let fill =
        if k = ls then Device.fill_of dev src ~off:from ~len:ls else None
      in
      match fill with
      | Some fill ->
        lines.(i) <- fill;
        filled := Int64.logor !filled bit
      | None when Int64.logand own bit <> 0L ->
        Bytes.blit src from lines.(i) (lo - (i * ls)) k
      | None ->
        let line =
          if k = ls then Bytes.sub src from ls
          else begin
            let line = Bytes.copy lines.(i) in
            Bytes.blit src from line (lo - (i * ls)) k;
            line
          end
        in
        lines.(i) <- line;
        made := Int64.logor !made bit
    done;
    set64 b.bits own_off
      (Int64.logand (Int64.logor own !made) (Int64.lognot !filled));
    settle dev b
  | None -> ()

let load b ~off ~len ~into ~into_off =
  let ls = line_size b in
  if len > 0 then
    for i = off / ls to (off + len - 1) / ls do
      let lo = Int.max off (i * ls) in
      let k = Int.min (off + len) ((i + 1) * ls) - lo in
      Bytes.blit b.lines.(i) (lo - (i * ls)) into (into_off + lo - off) k
    done

(* Lines [first, first+count) are no longer private: called in the same
   step, with no yield between, as the device call that shared them. *)
let share b ~first ~count =
  let run =
    if count >= 64 then -1L
    else Int64.shift_left (Int64.pred (Int64.shift_left 1L count)) first
  in
  set64 b.bits own_off (Int64.logand (own b) (Int64.lognot run))

(* A device call that yields works on the table [owned_lines] gave it:
   [io] keeps [settle] from dropping that table until the call returns. *)
let end_io b = b.io <- b.io - 1

let fetch dev ~cat b ~addr ~first ~count =
  let into = owned_lines dev b in
  b.io <- b.io + 1;
  (match
     Device.read_lines dev ~cat ~addr ~len:(count * line_size b) ~into ~first
   with
  | () -> end_io b
  | exception e ->
    end_io b;
    raise e);
  share b ~first ~count;
  settle dev b

let fill_zeros dev b ~first ~count =
  Array.fill (owned_lines dev b) first count (Device.fill_line dev '\000');
  share b ~first ~count;
  settle dev b

let write_back ~background dev ~cat b ~addr ~first ~count =
  let lines = owned_lines dev b in
  b.io <- b.io + 1;
  (match
     Device.write_nt_lines ~background dev ~cat ~addr
       ~len:(count * line_size b) ~lines ~first
   with
  | () -> end_io b
  | exception e ->
    end_io b;
    raise e);
  share b ~first ~count;
  settle dev b
