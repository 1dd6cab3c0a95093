(* Int-keyed hash table by open addressing: keys and values in two flat
   arrays, linear probing from a multiplicative hash of the key, and
   backward-shift deletion (no tombstones), so a probe for a key stops at
   the first empty slot. A Hashtbl allocates a bucket cell per binding; in
   a table that lives in the major heap each cell is promoted and dies
   there. This one allocates only when it grows. *)

let empty = -1

type 'a t = {
  mutable keys : int array; (* [empty] where no key is bound *)
  mutable vals : 'a array;
  mutable size : int;
  mutable bits : int; (* capacity = 2^bits *)
  dummy : 'a;
}

let alloc_slots t bits =
  t.keys <- Array.make (1 lsl bits) empty;
  t.vals <- Array.make (1 lsl bits) t.dummy;
  t.bits <- bits

let create ~dummy n =
  let rec fit bits = if 1 lsl bits >= 2 * n then bits else fit (bits + 1) in
  let t = { keys = [||]; vals = [||]; size = 0; bits = 0; dummy } in
  alloc_slots t (fit 0);
  t

let length t = t.size

(* The top [bits] bits of the key times an odd 63-bit constant: adjacent
   keys (a page's lines) land far apart, so they form no probe runs. *)
let[@inline] home t k = (k * 0x1E3779B97F4A7C15) lsr (63 - t.bits)

(* The slot holding [k], or the empty slot where its probe stops. *)
let slot t k =
  let mask = (1 lsl t.bits) - 1 in
  let i = ref (home t k) in
  while
    let key = Array.unsafe_get t.keys !i in
    key <> k && key <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let mem t k = k >= 0 && Array.unsafe_get t.keys (slot t k) = k

let get t k =
  if k < 0 then t.dummy
  else
    let i = slot t k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
    else t.dummy

let rec replace t k v =
  if k < 0 then invalid_arg "Itbl.replace: negative key";
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else if 2 * (t.size + 1) > 1 lsl t.bits then begin
    let keys = t.keys and vals = t.vals in
    alloc_slots t (t.bits + 1);
    t.size <- 0;
    Array.iteri (fun j key -> if key <> empty then replace t key vals.(j)) keys;
    replace t k v
  end
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

(* Backward shift: each later key of the probe run whose home does not
   lie cyclically in (hole, its slot] moves into the hole. *)
let remove t k =
  if k >= 0 then begin
    let i = slot t k in
    if t.keys.(i) = k then begin
      let mask = (1 lsl t.bits) - 1 in
      let hole = ref i and j = ref ((i + 1) land mask) in
      while t.keys.(!j) <> empty do
        let h = home t t.keys.(!j) in
        let stays =
          if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
        in
        if not stays then begin
          t.keys.(!hole) <- t.keys.(!j);
          t.vals.(!hole) <- t.vals.(!j);
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      t.keys.(!hole) <- empty;
      t.vals.(!hole) <- t.dummy;
      t.size <- t.size - 1
    end
  end

let clear t =
  if t.size > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) empty;
    Array.fill t.vals 0 (Array.length t.vals) t.dummy;
    t.size <- 0
  end

let iter f t =
  Array.iteri (fun i k -> if k <> empty then f k t.vals.(i)) t.keys

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i k -> if k <> empty then acc := f k t.vals.(i) !acc) t.keys;
  !acc
