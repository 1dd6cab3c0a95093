(* Cacheline Bitmap (paper §3.2.1, Fig. 4): one bit per cacheline of a
   4 KB buffer block, packed into an int64 (64 lines x 64 B = 4 KB).

   HiNFS keeps these per DRAM buffer block (Buffer_pool):
   - [present]: cachelines holding valid data in DRAM;
   - [dirty]:   cachelines that must be written back (dirty ⊆ present);
   - [home_valid]: cachelines of the NVMM home holding valid data;
   - [own]: cachelines private to the block, not shared with the medium.

   The CLFW scheme fetches and flushes at this granularity, and the read
   path merges DRAM and NVMM data run-by-run to minimise memcpy calls. *)

type t = int64

let empty : t = 0L
let full_mask lines =
  if lines <= 0 then 0L
  else if lines >= 64 then -1L
  else Int64.sub (Int64.shift_left 1L lines) 1L

let mem t line = Int64.logand (Int64.shift_right_logical t line) 1L = 1L

(* Bits [first, last] inclusive. *)
let range ~first ~last =
  if last < first then 0L
  else begin
    let count = last - first + 1 in
    Int64.shift_left (full_mask count) first
  end

let add_range t ~first ~last = Int64.logor t (range ~first ~last)

let inter = Int64.logand
let diff a b = Int64.logand a (Int64.lognot b)
let is_empty t = Int64.equal t 0L
let equal = Int64.equal

(* Population count by word arithmetic: bit counts of pairs, nibbles and
   bytes, summed into the top byte by one multiply. *)
let[@inline] count t =
  let open Int64 in
  let x = sub t (logand (shift_right_logical t 1) 0x5555555555555555L) in
  let x =
    add (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* Trailing zero bits: the bits below the lowest set one; 64 for 0. *)
let[@inline] ctz t = count (Int64.logand (Int64.lognot t) (Int64.sub t 1L))

(* Cachelines covered by byte range [off, off+len) of a block. *)
let of_byte_range ~cacheline_size ~off ~len =
  if len <= 0 then 0L
  else begin
    let first = off / cacheline_size in
    let last = (off + len - 1) / cacheline_size in
    range ~first ~last
  end

(* Cachelines only partially covered at the boundaries of the byte range —
   the lines CLFW must fetch before an unaligned write. *)
let boundary_partials ~cacheline_size ~off ~len =
  if len <= 0 then 0L
  else begin
    let first = off / cacheline_size in
    let last = (off + len - 1) / cacheline_size in
    let head =
      if off mod cacheline_size <> 0 then Int64.shift_left 1L first else 0L
    in
    let tail =
      if (off + len) mod cacheline_size <> 0 then Int64.shift_left 1L last
      else 0L
    in
    Int64.logor head tail
  end

(* Iterate maximal runs within lines [0, nlines) (at most 64): calls
   [f ~first ~count ~set] for each run of equal membership. A run ends at
   the lowest bit from its start whose membership differs: the lowest set
   bit of the word (inverted for a set run) shifted down to the start. *)
let iter_runs t ~nlines f =
  let start = ref 0 in
  while !start < nlines do
    let first = !start in
    let set = mem t first in
    let rest =
      Int64.shift_right_logical (if set then Int64.lognot t else t) first
    in
    let stop = Int.min nlines (first + ctz rest) in
    f ~first ~count:(stop - first) ~set;
    start := stop
  done

(* Iterate only the set runs: each starts at the lowest bit left, and the
   bits of a run are cleared by masking off everything below its end. *)
let iter_set_runs t ~nlines f =
  let rest = ref (inter t (full_mask nlines)) in
  while not (is_empty !rest) do
    let first = ctz !rest in
    let count = ctz (Int64.lognot (Int64.shift_right_logical !rest first)) in
    f ~first ~count;
    let stop = first + count in
    rest :=
      if stop >= 64 then 0L
      else Int64.logand !rest (Int64.shift_left (-1L) stop)
  done
