(* Binary min-heap of timestamped events.

   Keys are (time, seq) pairs; [seq] is a strictly increasing sequence number
   assigned at insertion so that events scheduled for the same virtual time
   fire in FIFO order — this is what makes the whole simulation
   deterministic.

   Every entry knows its own slot ([pos], -1 once popped or removed), so an
   entry can be removed from the middle in O(log n). *)

type 'a entry = { time : int64; seq : int; payload : 'a; mutable pos : int }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
}

let create () = { data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let all_after t time = t.size = 0 || Int64.to_int t.data.(0).time > time

let lt a b =
  match Int64.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let set t i e =
  t.data.(i) <- e;
  e.pos <- i

(* Move [e] up from the hole at [i] to its place. *)
let rec sift_up t i e =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let p = t.data.(parent) in
    if lt e p then begin
      set t i p;
      sift_up t parent e
    end
    else set t i e
  end
  else set t i e

(* Move [e] down from the hole at [i] to its place. *)
let rec sift_down t i e =
  let left = (2 * i) + 1 in
  if left >= t.size then set t i e
  else begin
    let right = left + 1 in
    let child =
      if right < t.size && lt t.data.(right) t.data.(left) then right
      else left
    in
    let c = t.data.(child) in
    if lt c e then begin
      set t i c;
      sift_down t child e
    end
    else set t i e
  end

let grow t =
  let capacity = Array.length t.data in
  if t.size >= capacity then begin
    let new_capacity = max 16 (2 * capacity) in
    (* The dummy element is never observed: every slot below [size] is
       overwritten before being read. *)
    let dummy = t.data.(0) in
    let data = Array.make new_capacity dummy in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let add t ~time ~seq payload =
  let entry = { time; seq; payload; pos = -1 } in
  if Array.length t.data = 0 then t.data <- Array.make 16 entry else grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) entry;
  entry

(* Fill the hole at [i] with the last entry, which may belong above or
   below it. *)
let fill_hole t i =
  t.size <- t.size - 1;
  if i < t.size then begin
    let last = t.data.(t.size) in
    if i > 0 && lt last t.data.((i - 1) / 2) then sift_up t i last
    else sift_down t i last
  end

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    top.pos <- -1;
    fill_hole t 0;
    Some top
  end

let remove t e =
  let i = e.pos in
  if i >= 0 && i < t.size && t.data.(i) == e then begin
    e.pos <- -1;
    fill_hole t i
  end
