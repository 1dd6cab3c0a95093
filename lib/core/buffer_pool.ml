(* The DRAM write buffer pool (paper §3.2).

   A fixed population of 4 KB DRAM blocks, each backed by host memory
   from its first [alloc] on (a mount that never fills its pool pays only
   for the blocks it used). Blocks in use are linked on the
   global LRW (Least Recently Written) list — front = least recently
   written, back = MRW — which the background writeback threads consume
   from the front. Free blocks sit on a free list.

   Each block carries its Cacheline Bitmaps:
   - [present]: lines with valid data in DRAM,
   - [dirty]:   lines awaiting writeback (dirty ⊆ present),
   - [home_valid]: lines of the NVMM home block that hold valid data (all
     set when the home block pre-existed; grows as lines are flushed). A
     block may only be freed once home_valid covers every line, so NVMM
     reads after eviction never see stale medium bytes. *)

module Dlist = Hinfs_structures.Dlist

type block = {
  id : int;
  mutable data : Bytes.t; (* empty until the block is first allocated *)
  node : int Dlist.node; (* membership in the LRW list (value = id) *)
  mutable ino : int;
  mutable fblock : int;
  mutable home : int; (* NVMM home block number *)
  mutable present : Clbitmap.t;
  mutable dirty : Clbitmap.t;
  mutable home_valid : Clbitmap.t;
  mutable last_written : int64;
  mutable pinned : int; (* foreground use / in-flight writeback *)
  mutable in_use : bool;
}

(* Descriptors are made on first [alloc]: [blocks] holds ids [0, made),
   growing by doubling, so an empty pool costs a few words whatever its
   capacity. Ids go out in the eager FIFO's order: never-made ids
   ascending (they sat at the front of that queue), then freed ids in the
   order they were freed. *)
type t = {
  capacity : int;
  mutable blocks : block array;
  mutable made : int;
  block_size : int;
  lines_per_block : int;
  free : int Queue.t; (* freed ids *)
  lrw : int Dlist.t;
  mutable free_count : int;
}

let create ~capacity ~block_size ~lines_per_block =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: empty pool";
  {
    capacity;
    blocks = [||];
    made = 0;
    block_size;
    lines_per_block;
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
        data = Bytes.empty;
        node = Dlist.make_node id;
        ino = 0;
        fblock = 0;
        home = 0;
        present = Clbitmap.empty;
        dirty = Clbitmap.empty;
        home_valid = Clbitmap.empty;
        last_written = 0L;
        pinned = 0;
        in_use = false;
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
    if Bytes.length b.data = 0 then b.data <- Bytes.create t.block_size;
    b.ino <- ino;
    b.fblock <- fblock;
    b.home <- home;
    b.present <- Clbitmap.empty;
    b.dirty <- Clbitmap.empty;
    b.home_valid <- Clbitmap.empty;
    b.last_written <- now;
    b.pinned <- 0;
    b.in_use <- true;
    Dlist.push_back t.lrw b.node;
    Some b

let free t b =
  if not b.in_use then invalid_arg "Buffer_pool.free: block not in use";
  if b.pinned > 0 then invalid_arg "Buffer_pool.free: block pinned";
  b.in_use <- false;
  if Dlist.is_linked b.node then Dlist.remove t.lrw b.node;
  Queue.add b.id t.free;
  t.free_count <- t.free_count + 1

(* Record a write: the block moves to the MRW end. *)
let touch_written t b ~now =
  b.last_written <- now;
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
