(* Reader-writer lock for simulation processes (per-inode i_rwsem).

   Writer-preferring and FIFO among writers: once a writer queues, new
   readers wait behind it, preventing writer starvation. *)

type waiter = Reader of unit Engine.waker | Writer of unit Engine.waker

type t = {
  mutable readers : int;
  mutable writer : bool;
  queue : waiter Queue.t;
}

let create () = { readers = 0; writer = false; queue = Queue.create () }

(* Admit queued waiters in FIFO order: a writer is admitted only when the
   lock is completely free; consecutive readers at the head are admitted
   together. *)
let drain t =
  let rec loop () =
    match Queue.peek_opt t.queue with
    | None -> ()
    | Some (Reader w) when not t.writer ->
      ignore (Queue.pop t.queue);
      if Engine.wake w () then t.readers <- t.readers + 1;
      loop ()
    | Some (Writer w) when (not t.writer) && t.readers = 0 ->
      ignore (Queue.pop t.queue);
      if Engine.wake w () then t.writer <- true else loop ()
    | Some _ -> ()
  in
  loop ()

let read_lock t =
  if (not t.writer) && Queue.is_empty t.queue then
    t.readers <- t.readers + 1
  else Proc.suspend (fun w -> Queue.add (Reader w) t.queue)

let read_unlock t =
  if t.readers <= 0 then invalid_arg "Rwlock.read_unlock: not read-locked";
  t.readers <- t.readers - 1;
  if t.readers = 0 then drain t

let write_lock t =
  if (not t.writer) && t.readers = 0 && Queue.is_empty t.queue then
    t.writer <- true
  else Proc.suspend (fun w -> Queue.add (Writer w) t.queue)

let write_unlock t =
  if not t.writer then invalid_arg "Rwlock.write_unlock: not write-locked";
  t.writer <- false;
  drain t

let with_read t f =
  read_lock t;
  Fun.protect ~finally:(fun () -> read_unlock t) f

let with_write t f =
  write_lock t;
  Fun.protect ~finally:(fun () -> write_unlock t) f
