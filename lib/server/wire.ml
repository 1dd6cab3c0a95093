(* Request/reply wire codec for the serving layer.

   The protocol is a compact NFS-flavoured subset: stateless-per-request
   messages identified by a one-byte tag, integers as fixed 8-byte LE,
   strings length-prefixed. Every request carries a generation-stamped
   file handle or a path, never a raw fd — the server's handle table is
   the only identity that crosses the wire (and survives reconnect).

   Encoding is a real byte round-trip, not an in-memory variant pass:
   the dispatch loop decodes what the client encoded, so codec cost and
   framing bugs are part of what the serve benchmarks measure. *)

module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno
module Obs = Hinfs_obs.Obs

(* File handle: slot in the low 32 bits, generation in the high 32. The
   generation makes a recreated path distinguishable from the file a
   client had open before the unlink — same slot number, different gen
   still fails resolution with ESTALE. *)
type fh = int64

let fh_make ~slot ~gen =
  Int64.logor
    (Int64.shift_left (Int64.of_int gen) 32)
    (Int64.logand (Int64.of_int slot) 0xFFFFFFFFL)

let fh_slot fh = Int64.to_int (Int64.logand fh 0xFFFFFFFFL)
let fh_gen fh = Int64.to_int (Int64.shift_right_logical fh 32)

type req =
  | Lookup of string  (** path -> handle + attributes *)
  | Getattr of fh
  | Read of fh * int * int  (** offset, length *)
  | Write of fh * int * string * bool  (** offset, data, stable? *)
  | Create of string  (** create + open; replies like Lookup *)
  | Remove of string
  | Rename of string * string
  | Commit of fh  (** make every unstable write to the file durable *)

type reply =
  | R_handle of fh * Types.stat
  | R_attr of Types.stat
  | R_data of string
  | R_written of int * int64  (** bytes accepted, write verifier *)
  | R_ok of int64  (** verifier *)
  | R_err of Errno.t
  | R_expired  (** session lease lapsed; re-establish and retry *)

let kind_of_req : req -> Obs.kind = function
  | Lookup _ -> Obs.Req_lookup
  | Getattr _ -> Obs.Req_getattr
  | Read _ -> Obs.Req_read
  | Write _ -> Obs.Req_write
  | Create _ -> Obs.Req_create
  | Remove _ -> Obs.Req_remove
  | Rename _ -> Obs.Req_rename
  | Commit _ -> Obs.Req_commit

let req_name = function
  | Lookup _ -> "LOOKUP"
  | Getattr _ -> "GETATTR"
  | Read _ -> "READ"
  | Write _ -> "WRITE"
  | Create _ -> "CREATE"
  | Remove _ -> "REMOVE"
  | Rename _ -> "RENAME"
  | Commit _ -> "COMMIT"

(* Errno codes are part of the wire format: keep them stable. *)
let errno_to_code : Errno.t -> int = function
  | ENOENT -> 1
  | EEXIST -> 2
  | EISDIR -> 3
  | ENOTDIR -> 4
  | ENOSPC -> 5
  | EBADF -> 6
  | EINVAL -> 7
  | ENOTEMPTY -> 8
  | EFBIG -> 9
  | EROFS -> 10
  | EIO -> 11
  | ESTALE -> 12

let errno_of_code : int -> Errno.t = function
  | 1 -> ENOENT
  | 2 -> EEXIST
  | 3 -> EISDIR
  | 4 -> ENOTDIR
  | 5 -> ENOSPC
  | 6 -> EBADF
  | 7 -> EINVAL
  | 8 -> ENOTEMPTY
  | 9 -> EFBIG
  | 10 -> EROFS
  | 11 -> EIO
  | 12 -> ESTALE
  | n -> invalid_arg (Printf.sprintf "Wire.errno_of_code: %d" n)

(* --- primitives ---

   A message is encoded into one buffer of exactly its size, worked out
   first from its fields: the tag 1 byte, an integer 8, a bool 1, a
   string 8 plus its bytes, a stat six integers. *)

type writer = { buf : Bytes.t; mutable pos : int }

let writer size = { buf = Bytes.create size; pos = 0 }

let put_char w c =
  Bytes.set w.buf w.pos c;
  w.pos <- w.pos + 1

let put_i64 w v =
  Bytes.set_int64_le w.buf w.pos v;
  w.pos <- w.pos + 8

let put_int w v = put_i64 w (Int64.of_int v)
let put_bool w v = put_char w (if v then '\001' else '\000')

let put_str w s =
  put_int w (String.length s);
  Bytes.blit_string s 0 w.buf w.pos (String.length s);
  w.pos <- w.pos + String.length s

(* The message, which the puts must have filled exactly. *)
let contents w =
  assert (w.pos = Bytes.length w.buf);
  w.buf

let str_size s = 8 + String.length s
let stat_size = 6 * 8

let get_i64 buf pos =
  let v = Bytes.get_int64_le buf !pos in
  pos := !pos + 8;
  v

let get_int buf pos = Int64.to_int (get_i64 buf pos)

let get_bool buf pos =
  let c = Bytes.get buf !pos in
  incr pos;
  c <> '\000'

let get_str buf pos =
  let n = get_int buf pos in
  let s = Bytes.sub_string buf !pos n in
  pos := !pos + n;
  s

let put_stat w (st : Types.stat) =
  put_int w st.ino;
  put_int w (match st.kind with Types.Regular -> 0 | Types.Directory -> 1);
  put_int w st.size;
  put_int w st.nlink;
  put_int w st.blocks;
  put_i64 w st.mtime_ns

let get_stat buf pos : Types.stat =
  let ino = get_int buf pos in
  let kind =
    match get_int buf pos with
    | 0 -> Types.Regular
    | 1 -> Types.Directory
    | n -> invalid_arg (Printf.sprintf "Wire.get_stat: bad kind %d" n)
  in
  let size = get_int buf pos in
  let nlink = get_int buf pos in
  let blocks = get_int buf pos in
  let mtime_ns = get_i64 buf pos in
  { ino; kind; size; nlink; blocks; mtime_ns }

(* --- requests --- *)

let req_size = function
  | Lookup path | Create path | Remove path -> 1 + str_size path
  | Getattr _ | Commit _ -> 1 + 8
  | Read _ -> 1 + 24
  | Write (_, _, data, _) -> 1 + 16 + str_size data + 1
  | Rename (src, dst) -> 1 + str_size src + str_size dst

let encode_req req =
  let b = writer (req_size req) in
  (match req with
  | Lookup path ->
    put_char b '\001';
    put_str b path
  | Getattr fh ->
    put_char b '\002';
    put_i64 b fh
  | Read (fh, off, len) ->
    put_char b '\003';
    put_i64 b fh;
    put_int b off;
    put_int b len
  | Write (fh, off, data, stable) ->
    put_char b '\004';
    put_i64 b fh;
    put_int b off;
    put_str b data;
    put_bool b stable
  | Create path ->
    put_char b '\005';
    put_str b path
  | Remove path ->
    put_char b '\006';
    put_str b path
  | Rename (src, dst) ->
    put_char b '\007';
    put_str b src;
    put_str b dst
  | Commit fh ->
    put_char b '\008';
    put_i64 b fh);
  contents b

let decode_req buf =
  let pos = ref 1 in
  match Bytes.get buf 0 with
  | '\001' -> Lookup (get_str buf pos)
  | '\002' -> Getattr (get_i64 buf pos)
  | '\003' ->
    let fh = get_i64 buf pos in
    let off = get_int buf pos in
    let len = get_int buf pos in
    Read (fh, off, len)
  | '\004' ->
    let fh = get_i64 buf pos in
    let off = get_int buf pos in
    let data = get_str buf pos in
    let stable = get_bool buf pos in
    Write (fh, off, data, stable)
  | '\005' -> Create (get_str buf pos)
  | '\006' -> Remove (get_str buf pos)
  | '\007' ->
    let src = get_str buf pos in
    let dst = get_str buf pos in
    Rename (src, dst)
  | '\008' -> Commit (get_i64 buf pos)
  | c -> invalid_arg (Printf.sprintf "Wire.decode_req: bad tag %d" (Char.code c))

(* --- replies --- *)

let reply_size = function
  | R_handle _ -> 1 + 8 + stat_size
  | R_attr _ -> 1 + stat_size
  | R_data data -> 1 + str_size data
  | R_written _ -> 1 + 16
  | R_ok _ | R_err _ -> 1 + 8
  | R_expired -> 1

let encode_reply reply =
  let b = writer (reply_size reply) in
  (match reply with
  | R_handle (fh, st) ->
    put_char b '\001';
    put_i64 b fh;
    put_stat b st
  | R_attr st ->
    put_char b '\002';
    put_stat b st
  | R_data data ->
    put_char b '\003';
    put_str b data
  | R_written (n, verifier) ->
    put_char b '\004';
    put_int b n;
    put_i64 b verifier
  | R_ok verifier ->
    put_char b '\005';
    put_i64 b verifier
  | R_err code ->
    put_char b '\006';
    put_int b (errno_to_code code)
  | R_expired -> put_char b '\007');
  contents b

let decode_reply buf =
  let pos = ref 1 in
  match Bytes.get buf 0 with
  | '\001' ->
    let fh = get_i64 buf pos in
    let st = get_stat buf pos in
    R_handle (fh, st)
  | '\002' -> R_attr (get_stat buf pos)
  | '\003' -> R_data (get_str buf pos)
  | '\004' ->
    let n = get_int buf pos in
    let verifier = get_i64 buf pos in
    R_written (n, verifier)
  | '\005' -> R_ok (get_i64 buf pos)
  | '\006' -> R_err (errno_of_code (get_int buf pos))
  | '\007' -> R_expired
  | c ->
    invalid_arg (Printf.sprintf "Wire.decode_reply: bad tag %d" (Char.code c))
