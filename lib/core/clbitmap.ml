(* Cacheline Bitmap (paper §3.2.1, Fig. 4): one bit per cacheline of a
   4 KB buffer block, packed into an int64 (64 lines x 64 B = 4 KB).

   HiNFS keeps two of these per DRAM buffer block:
   - [present]: cachelines holding valid data in DRAM;
   - [dirty]:   cachelines that must be written back (dirty ⊆ present).

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

let union = Int64.logor
let inter = Int64.logand
let diff a b = Int64.logand a (Int64.lognot b)
let is_empty t = Int64.equal t 0L
let equal = Int64.equal

let count t =
  (* popcount *)
  let rec loop v acc =
    if Int64.equal v 0L then acc
    else loop (Int64.logand v (Int64.sub v 1L)) (acc + 1)
  in
  loop t 0

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

(* Iterate maximal runs within lines [0, nlines): calls
   [f ~first ~count ~set] for each run of equal membership. *)
let iter_runs t ~nlines f =
  let rec loop start =
    if start < nlines then begin
      let in_set = mem t start in
      let rec extend i =
        if i < nlines && mem t i = in_set then extend (i + 1) else i
      in
      let stop = extend (start + 1) in
      f ~first:start ~count:(stop - start) ~set:in_set;
      loop stop
    end
  in
  loop 0

(* Iterate only the set runs. *)
let iter_set_runs t ~nlines f =
  iter_runs t ~nlines (fun ~first ~count ~set ->
      if set then f ~first ~count)
