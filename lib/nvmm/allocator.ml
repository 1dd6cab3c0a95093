(* Block allocator over a region of the device.

   Allocation state lives in DRAM, as in PMFS: the kernel module keeps its
   free lists volatile and rebuilds them at mount time by walking the inode
   trees, so there is nothing to persist here.

   Both policies scan the bitmap from [cursor]; only [free] tells them
   apart. [Lowest_free] (PMFS) keeps no clear bit below the cursor, so
   [alloc] returns the lowest free block, as pmfs_new_block and
   pmfs_new_inode do, and churn reuses freed blocks at once. [Rolling]
   (cowfs) is next-fit: the cursor only moves forward and wraps, so a
   commit's fresh blocks stay clustered on few refcount-table pages. *)

type policy = Lowest_free | Rolling

type t = {
  policy : policy;
  first_block : int;
  count : int;
  used : Hinfs_structures.Bitmap.t;
  mutable cursor : int; (* scan start, relative index *)
  mutable injector : (unit -> bool) option;
      (* operation-level fault hook: [true] = fail this allocation *)
}

module Bitmap = Hinfs_structures.Bitmap

let create ~policy ~first_block ~count =
  if first_block < 0 || count <= 0 then
    invalid_arg "Allocator.create: bad region";
  {
    policy;
    first_block;
    count;
    used = Bitmap.create count;
    cursor = 0;
    injector = None;
  }

let set_fault_injector t f = t.injector <- f

(* Injected failures look exactly like exhaustion (alloc returns [None]),
   so callers exercise their genuine ENOSPC paths. *)
let injected_failure t =
  match t.injector with None -> false | Some f -> f ()

let free_blocks t = Bitmap.count_clear t.used
let used_blocks t = Bitmap.count_set t.used

let contains t block =
  block >= t.first_block && block < t.first_block + t.count

let is_allocated t block =
  if not (contains t block) then invalid_arg "Allocator: block out of region";
  Bitmap.get t.used (block - t.first_block)

let alloc t =
  if injected_failure t then None
  else
    let found =
      match Bitmap.find_first_clear ~from:t.cursor t.used with
      | Some _ as r -> r
      | None when t.cursor > 0 -> Bitmap.find_first_clear ~from:0 t.used
      | None -> None
    in
    match found with
    | None -> None
    | Some i ->
      Bitmap.set t.used i;
      t.cursor <- (if i + 1 >= t.count then 0 else i + 1);
      Some (t.first_block + i)

let free t block =
  if not (contains t block) then invalid_arg "Allocator.free: out of region";
  let i = block - t.first_block in
  if not (Bitmap.get t.used i) then
    invalid_arg "Allocator.free: double free";
  Bitmap.clear t.used i;
  match t.policy with
  | Lowest_free -> t.cursor <- min t.cursor i
  | Rolling -> ()

let mark_allocated t block =
  if not (contains t block) then
    invalid_arg "Allocator.mark_allocated: out of region";
  Bitmap.set t.used (block - t.first_block)

let reset t =
  Bitmap.clear_all t.used;
  t.cursor <- 0
