(* Dense bitmaps backed by [Bytes].

   Used for the on-NVMM block allocator bitmaps and for bulk dirty-tracking
   structures. Bit [i] lives in byte [i/8], bit position [i mod 8]. *)

type t = {
  bits : Bytes.t;
  length : int;
  mutable set_count : int;
}

let create length =
  if length < 0 then invalid_arg "Bitmap.create: negative length";
  { bits = Bytes.make ((length + 7) / 8) '\000'; length; set_count = 0 }

let count_set t = t.set_count
let count_clear t = t.length - t.set_count

let check t i =
  if i < 0 || i >= t.length then invalid_arg "Bitmap: index out of bounds"

let get t i =
  check t i;
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if byte land mask = 0 then begin
    Bytes.set t.bits (i lsr 3) (Char.chr (byte lor mask));
    t.set_count <- t.set_count + 1
  end

let clear t i =
  check t i;
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if byte land mask <> 0 then begin
    Bytes.set t.bits (i lsr 3) (Char.chr (byte land lnot mask));
    t.set_count <- t.set_count - 1
  end

let assign t i value = if value then set t i else clear t i

let clear_all t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.set_count <- 0

(* First bit equal to [want] at or after [from]. Aligned 8-byte words
   holding only the other value are skipped whole; the rest goes a bit at
   a time. *)
let find_first t ~from ~want =
  let skip = if want then 0L else -1L in
  let rec scan i =
    if i >= t.length then None
    else if
      i land 63 = 0
      && i + 64 <= t.length
      && Int64.equal (Bytes.get_int64_le t.bits (i lsr 3)) skip
    then scan (i + 64)
    else if get t i = want then Some i
    else scan (i + 1)
  in
  scan from

let find_first_clear ?(from = 0) t =
  if from < 0 then invalid_arg "Bitmap.find_first_clear: negative start";
  find_first t ~from ~want:false

let find_first_set ?(from = 0) t =
  if from < 0 then invalid_arg "Bitmap.find_first_set: negative start";
  find_first t ~from ~want:true
