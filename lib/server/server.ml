(* The request-level serving loop: decode, dispatch, encode.

   Architecture is a single shared request queue fanned out to a pool of
   worker fibers. A client [call] encodes its request, enqueues it with a
   waker, and suspends; a worker picks it up, records the queue wait
   (srv.queue, via [span_since] so fan-in cost is visible in the phase
   breakdown), decodes (srv.decode), touches the session lease, runs the
   operation against the VFS, encodes the reply (srv.encode) and wakes
   the client. Durability work — stable WRITEs, COMMIT, flush-on-evict —
   shows up under srv.flush.

   Identity rules, in one place:
   - handles (Fhandle) are server-global and survive session expiry;
   - REMOVE stales the path's handle and closes its cached open before
     the unlink (the VFS refuses to unlink open files);
   - RENAME carries the handle to the new name and stales whatever was
     clobbered at the destination. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Condvar = Hinfs_sim.Condvar
module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno
module Obs = Hinfs_obs.Obs

type pending = {
  sid : int;
  payload : Bytes.t;
  enq_at : int64;
  waker : Bytes.t Engine.waker;
}

type t = {
  engine : Engine.t;
  vfs : Vfs.handle;
  sessions : Session.t;
  handles : Fhandle.t;
  cache : Ofcache.t;
  queue : pending Queue.t;
  work_cv : Condvar.t;
  reaper_cv : Condvar.t;
  workers : int;
  verifier : int64; (* boot stamp: changes iff the server restarts *)
  mutable running : bool;
  mutable served : int;
  mutable expired_replies : int;
  mutable err_replies : int;
}

(* Virtual-time cost of (de)serialising a message: a base per-message
   cost plus a per-byte term, charged on the worker. *)
let codec_ns len = 120 + (len / 32)

let create ?(workers = 8) ?(cache_cap = 64) ?(lease_ns = 50_000_000L)
    ?(verifier = 0x48694E4653L) engine vfs =
  let sessions = Session.create ~lease_ns in
  let cache = Ofcache.create vfs ~cap:cache_cap in
  Session.on_expire sessions (fun sid ->
      let reclaimed = Ofcache.reclaim_session cache sid in
      Obs.instant Obs.Ev_session_expire ~a:sid ~b:reclaimed);
  {
    engine;
    vfs;
    sessions;
    handles = Fhandle.create ();
    cache;
    queue = Queue.create ();
    work_cv = Condvar.create engine;
    reaper_cv = Condvar.create engine;
    workers;
    verifier;
    running = false;
    served = 0;
    expired_replies = 0;
    err_replies = 0;
  }

let vfs t = t.vfs
let sessions t = t.sessions
let handles t = t.handles
let cache t = t.cache
let queue_depth t = Queue.length t.queue
let served t = t.served
let expired_replies t = t.expired_replies
let err_replies t = t.err_replies

(* --- dispatch --- *)

(* GETATTR doubles as revalidation: the stat that answers the request
   also proves the path still names the handle's inode. Must fail with
   ESTALE before touching any inode state. *)
let revalidate_stat t (e : Fhandle.entry) =
  let st =
    match t.vfs.Vfs.stat e.path with
    | st -> st
    | exception Errno.Fs_error ((ENOENT | ENOTDIR), _) ->
      Fhandle.mark_stale t.handles e;
      Errno.raise_error ESTALE "%s vanished under handle %d.%d" e.path e.slot
        e.gen
  in
  if st.Types.ino <> e.ino then begin
    Fhandle.mark_stale t.handles e;
    Errno.raise_error ESTALE "%s no longer names ino %d" e.path e.ino
  end;
  st

let flush_fd t fd = Obs.with_span Obs.Srv_flush (fun () -> t.vfs.Vfs.fsync fd)

let dispatch t ~sid (req : Wire.req) : Wire.reply =
  match req with
  | Lookup path ->
    let st = t.vfs.Vfs.stat path in
    let fh = Fhandle.mint t.handles ~path ~ino:st.Types.ino in
    R_handle (fh, st)
  | Getattr fh ->
    let e = Fhandle.resolve t.handles fh in
    R_attr (revalidate_stat t e)
  | Read (fh, off, len) ->
    let e = Fhandle.resolve t.handles fh in
    Ofcache.with_open t.cache ~ino:e.ino ~path:e.path ~sid (fun fd ->
        let buf = Bytes.create len in
        let n = t.vfs.Vfs.pread fd ~off buf len in
        (* [buf] is not written again: a full read is the reply as is. *)
        Wire.R_data
          (if n = len then Bytes.unsafe_to_string buf
           else Bytes.sub_string buf 0 n))
  | Write (fh, off, data, stable) ->
    let e = Fhandle.resolve t.handles fh in
    Ofcache.with_open t.cache ~ino:e.ino ~path:e.path ~sid (fun fd ->
        (* A write reads its source and keeps none of it, so the decoded
           payload is handed over without a copy. *)
        let n =
          t.vfs.Vfs.pwrite fd ~off (Bytes.unsafe_of_string data)
            (String.length data)
        in
        if stable then begin
          flush_fd t fd;
          Ofcache.clear_dirty t.cache e.ino
        end
        else Ofcache.mark_dirty t.cache e.ino;
        Wire.R_written (n, t.verifier))
  | Create path ->
    let fd = t.vfs.Vfs.open_ path { Types.creat with read = true } in
    let st = t.vfs.Vfs.fstat fd in
    (* don't leak the fresh fd if inserting it forces an eviction whose
       flush fails *)
    (match Ofcache.insert t.cache ~ino:st.Types.ino ~fd ~sid with
    | (_ : Vfs.fd) -> ()
    | exception ex ->
      (try t.vfs.Vfs.close fd with Errno.Fs_error _ -> ());
      raise ex);
    let fh = Fhandle.mint t.handles ~path ~ino:st.Types.ino in
    R_handle (fh, st)
  | Remove path ->
    (match Fhandle.invalidate_path t.handles path with
    | Some ino -> Ofcache.drop t.cache ~ino ~flush:false
    | None -> ());
    t.vfs.Vfs.unlink path;
    R_ok t.verifier
  | Rename (src, dst) ->
    (match Fhandle.note_rename t.handles ~src ~dst with
    | Some clobbered_ino -> Ofcache.drop t.cache ~ino:clobbered_ino ~flush:false
    | None -> ());
    t.vfs.Vfs.rename src dst;
    R_ok t.verifier
  | Commit fh ->
    let e = Fhandle.resolve t.handles fh in
    Ofcache.commit t.cache e.ino;
    R_ok t.verifier

(* --- worker pool --- *)

let serve_one t (p : pending) =
  Obs.span_since Obs.Srv_queue ~t0:p.enq_at;
  Obs.span_begin Obs.Srv_decode;
  Proc.delay_int (codec_ns (Bytes.length p.payload));
  let req = Wire.decode_req p.payload in
  Obs.span_end Obs.Srv_decode;
  let reply =
    if not (Session.touch t.sessions p.sid) then begin
      t.expired_replies <- t.expired_replies + 1;
      Wire.R_expired
    end
    else
      match dispatch t ~sid:p.sid req with
      | reply -> reply
      | exception Errno.Fs_error (code, _) ->
        t.err_replies <- t.err_replies + 1;
        Wire.R_err code
  in
  Obs.span_begin Obs.Srv_encode;
  let out = Wire.encode_reply reply in
  Proc.delay_int (codec_ns (Bytes.length out));
  Obs.span_end Obs.Srv_encode;
  t.served <- t.served + 1;
  ignore (Engine.wake p.waker out)

let rec worker t () =
  match Queue.take_opt t.queue with
  | Some p ->
    serve_one t p;
    worker t ()
  | None ->
    if t.running then begin
      Condvar.wait t.work_cv;
      worker t ()
    end

(* Reaps idle sessions so leases expire even with no traffic. Wakes every
   half-lease; [stop] signals it out of its sleep. *)
let rec reaper t () =
  if t.running then begin
    let half = Int64.div (Session.lease_ns t.sessions) 2L in
    ignore (Condvar.wait_timeout t.reaper_cv ~timeout:half);
    if t.running then begin
      ignore (Session.sweep t.sessions);
      reaper t ()
    end
  end

let start t =
  if t.running then invalid_arg "Server.start: already running";
  t.running <- true;
  for i = 0 to t.workers - 1 do
    Proc.spawn ~name:(Printf.sprintf "srv-worker%d" i) (worker t)
  done;
  Proc.spawn ~name:"srv-reaper" (reaper t)

let stop t =
  if t.running then begin
    t.running <- false;
    ignore (Condvar.broadcast t.work_cv);
    ignore (Condvar.broadcast t.reaper_cv)
  end

(* --- client entry points --- *)

let call t ~sid payload =
  if not t.running then invalid_arg "Server.call: server not running";
  let enq_at = Proc.now () in
  Proc.suspend (fun waker ->
      Queue.add { sid; payload; enq_at; waker } t.queue;
      ignore (Condvar.signal t.work_cv))

(* Encode, round-trip through the queue, decode — with the full
   client-perceived latency (queue wait included) recorded under the
   request's class. *)
let rpc t ~sid req =
  let t0 = Proc.now () in
  let reply = Wire.decode_reply (call t ~sid (Wire.encode_req req)) in
  Obs.span_since (Wire.kind_of_req req) ~t0;
  reply

let establish t = Session.establish t.sessions
