(* Counted resource with FIFO waiters.

   Used to model contended hardware: the NVMM write-bandwidth limiter is a
   resource with N_w slots (paper §5.1), where each in-flight cacheline write
   holds one slot for the duration of the write. *)

type waiter = { amount : int; waker : unit Engine.waker }

type t = {
  name : string;
  capacity : int;
  mutable available : int;
  waiters : waiter Queue.t;
  mutable peak_queue : int;
  mutable total_waits : int;
}

let create ~name ~capacity =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be > 0";
  {
    name;
    capacity;
    available = capacity;
    waiters = Queue.create ();
    peak_queue = 0;
    total_waits = 0;
  }

let capacity t = t.capacity
let available t = t.available
let queued t = Queue.length t.waiters
let total_waits t = t.total_waits
let peak_queue t = t.peak_queue

(* Grant queued requests in FIFO order while they fit. Waiters whose waker
   already fired (e.g. a timed-out acquire) are dropped. A release with
   nobody queued allocates nothing. *)
let rec drain t =
  match Queue.peek_opt t.waiters with
  | None -> ()
  | Some w when Engine.is_fired w.waker ->
    ignore (Queue.pop t.waiters);
    drain t
  | Some w when w.amount <= t.available ->
    ignore (Queue.pop t.waiters);
    t.available <- t.available - w.amount;
    ignore (Engine.wake w.waker ());
    drain t
  | Some _ -> ()

let try_acquire t amount =
  if amount <= 0 || amount > t.capacity then
    invalid_arg "Resource.try_acquire: bad amount";
  if Queue.is_empty t.waiters && t.available >= amount then begin
    t.available <- t.available - amount;
    true
  end
  else false

let acquire t amount =
  if amount <= 0 || amount > t.capacity then
    invalid_arg "Resource.acquire: bad amount";
  if not (try_acquire t amount) then begin
    t.total_waits <- t.total_waits + 1;
    Proc.suspend (fun waker ->
        Queue.add { amount; waker } t.waiters;
        t.peak_queue <- max t.peak_queue (Queue.length t.waiters))
  end

let release t amount =
  if amount <= 0 then invalid_arg "Resource.release: bad amount";
  t.available <- t.available + amount;
  if t.available > t.capacity then
    invalid_arg "Resource.release: released more than acquired";
  drain t

let with_resource t amount f =
  acquire t amount;
  Fun.protect ~finally:(fun () -> release t amount) f
